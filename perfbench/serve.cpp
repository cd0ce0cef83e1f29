/**
 * @file
 * The serving part of a run: WRN-40-2 behind InferenceService (2
 * workers, 2 replicas; max_batch 4 with a 2 ms batching window, or
 * max_batch 1) on one global thread. One generator thread drives two
 * phases:
 *
 *  1. open loop — Poisson arrivals at kOpenRate for kOpenShare of the
 *     part's time; each request is timed from its due time to when its response
 *     is in hand, so a stall also charges the requests queued behind it;
 *  2. closed loop — workers x max_batch requests kept in flight for the
 *     rest of the part's time; completions per second is the throughput.
 *
 * One request in five is real-time, the rest interactive. Each request
 * carries one of 16 seeded inputs, so fused batches mix inputs; every
 * response must be bitwise equal to a standalone batch-1 Engine's
 * output for its input.
 */
#include "bench.hpp"

#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>

#include "core/threadpool.hpp"
#include "graph/passes/pass.hpp"
#include "models/model_zoo.hpp"
#include "onnx/exporter.hpp"
#include "runtime/service.hpp"

namespace perfbench {

namespace {

using orpheus::InferenceResponse;
using orpheus::InferenceService;
using orpheus::RequestPriority;
using orpheus::Tensor;

constexpr int kWorkers = 2;
constexpr int kReplicas = 2;
/** Batching window of the batched workload. */
constexpr double kWindowMs = 2.0;
constexpr std::size_t kInputs = 16;
/** Open-loop arrival rate, about 30% of the closed-loop capacity on the
 *  reference host (see README). */
constexpr double kOpenRate = 20.0;
/** Share of the run spent in the open-loop phase. */
constexpr double kOpenShare = 0.85;
/** Poll period of the generator while nothing is due. */
constexpr auto kPollPeriod = std::chrono::microseconds(50);

orpheus::ServiceOptions
service_options(int max_batch)
{
    orpheus::ServiceOptions o;
    o.workers = kWorkers;
    o.replicas = kReplicas;
    o.max_batch = max_batch;
    o.batch_window_ms = max_batch > 1 ? kWindowMs : 0.0;
    // Deep enough that no request of either phase is ever refused.
    o.max_queue_depth = 1 << 16;
    o.rt_queue_depth = 1 << 16;
    return o;
}

struct Pending {
    std::future<InferenceResponse> future;
    std::size_t input_index;
    Clock::time_point due;
    std::int64_t request;
    std::int64_t span;
};

struct PhaseFigures {
    std::vector<double> latency_ms, queue_ms, run_ms, overhead_ms, late_ms;
    double engine_runs = 0; ///< sum of 1 / batch size over requests
    std::size_t completed = 0;
    Clock::time_point start{}, last_done{};
};

class Generator
{
  public:
    Generator(InferenceService &service, const std::string &input_name,
              const std::vector<Tensor> &inputs, Tracer &tracer,
              std::uint64_t seed)
        : service_(service), input_name_(input_name), inputs_(inputs),
          tracer_(tracer), state_(seed)
    {
    }

    /** Poisson arrivals at @p rate for @p seconds, then drain. */
    PhaseFigures
    open_loop(double rate, double seconds)
    {
        PhaseFigures f;
        const auto count = static_cast<std::size_t>(std::ceil(rate * seconds));
        f.start = Clock::now();
        Clock::time_point due = f.start;
        std::size_t sent = 0;
        due += gap(rate);
        while (sent < count || !pending_.empty()) {
            const Clock::time_point now = Clock::now();
            if (sent < count && now >= due) {
                f.late_ms.push_back(ms_between(due, now));
                submit(due);
                ++sent;
                due += gap(rate);
                continue;
            }
            if (poll(f) == 0) {
                const Clock::time_point wake = now + kPollPeriod;
                std::this_thread::sleep_until(
                    sent < count ? std::min(due, wake) : wake);
            }
        }
        return f;
    }

    /** @p in_flight requests outstanding at all times for @p seconds. */
    PhaseFigures
    closed_loop(std::size_t in_flight, double seconds)
    {
        PhaseFigures f;
        f.start = Clock::now();
        const Clock::time_point stop =
            f.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
        while (pending_.size() < in_flight)
            submit(Clock::now());
        while (!pending_.empty()) {
            const std::size_t done = poll(f);
            for (std::size_t i = 0; i < done && Clock::now() < stop; ++i)
                submit(Clock::now());
            if (done == 0)
                std::this_thread::sleep_for(kPollPeriod);
        }
        return f;
    }

    /** Every request submitted so far (warm-up included). */
    std::size_t submitted() const { return next_request_; }
    std::vector<ServedResponse> &responses() { return responses_; }

  private:
    Clock::duration
    gap(double rate)
    {
        const double u =
            static_cast<double>(next_random() >> 11) / 9007199254740992.0;
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(-std::log1p(-u) / rate));
    }

    std::uint64_t
    next_random()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    void
    submit(Clock::time_point due)
    {
        const std::int64_t request =
            static_cast<std::int64_t>(next_request_++);
        const std::size_t input = next_random() % inputs_.size();
        const RequestPriority priority = request % 5 == 0
                                             ? RequestPriority::kRealtime
                                             : RequestPriority::kInteractive;
        const std::int64_t span = tracer_.reserve_id();
        const Clock::time_point t0 = Clock::now();
        auto future = service_.submit({{input_name_, inputs_[input]}}, {}, 0,
                                      priority);
        tracer_.record("service.submit", t0, Clock::now(), span, request, 1);
        pending_.push_back(Pending{std::move(future), input, due, request,
                                   span});
    }

    /** Collects every ready response; returns how many. */
    std::size_t
    poll(PhaseFigures &f)
    {
        std::size_t done = 0;
        for (std::size_t i = 0; i < pending_.size();) {
            Pending &p = pending_[i];
            if (p.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++i;
                continue;
            }
            InferenceResponse response = p.future.get();
            const Clock::time_point now = Clock::now();
            tracer_.record_with_id(p.span, "loadgen.request", p.due, now, 0,
                                   p.request, 1);
            const double latency = ms_between(p.due, now);
            f.latency_ms.push_back(latency);
            f.queue_ms.push_back(response.queue_ms);
            f.run_ms.push_back(response.run_ms);
            f.overhead_ms.push_back(latency - response.queue_ms -
                                    response.run_ms);
            f.engine_runs += 1.0 / std::max(1, response.batch_size);
            ++f.completed;
            f.last_done = now;
            ServedResponse served;
            served.ok = response.status.is_ok();
            served.input_index = p.input_index;
            if (served.ok)
                served.output = only_output(std::move(response.outputs));
            responses_.push_back(std::move(served));
            pending_[i] = std::move(pending_.back());
            pending_.pop_back();
            ++done;
        }
        return done;
    }

    InferenceService &service_;
    std::string input_name_;
    const std::vector<Tensor> &inputs_;
    Tracer &tracer_;
    std::uint64_t state_;
    std::size_t next_request_ = 0;
    std::vector<Pending> pending_;
    std::vector<ServedResponse> responses_;
};

struct ServeFigures {
    PhaseFigures open, closed;
};

class ServePart : public Part
{
  public:
    ServePart(std::uint64_t seed, int max_batch)
        : max_batch_(max_batch), seed_(seed)
    {
        const orpheus::Graph zoo = orpheus::models::wrn_40_2();
        onnx_ = orpheus::export_onnx(zoo);
        for (std::size_t i = 0; i < kInputs; ++i)
            inputs_.push_back(seeded_input(zoo.inputs().front().shape,
                                           seed * 1000003ULL + 100 + i));
        orpheus::Engine standalone(import_or_throw(onnx_));
        const std::string name = standalone.request_inputs().front().name;
        for (const Tensor &input : inputs_)
            expected_.push_back(
                only_output(standalone.run({{name, input}})));
        reference_ = reference_run(zoo, inputs_.front(), reference_threads());
    }

    double
    set_up(Tracer &tracer, LayerFigures *layers) override
    {
        service_.reset();
        const std::int64_t setup_span = tracer.reserve_id();
        const Clock::time_point t0 = Clock::now();
        orpheus::Graph graph = import_or_throw(onnx_);
        const Clock::time_point t1 = Clock::now();
        tracer.record("onnx.import", t0, t1, setup_span, -1);
        if (layers != nullptr) {
            orpheus::Graph copy = import_or_throw(onnx_);
            const Clock::time_point s0 = Clock::now();
            orpheus::simplify_graph(copy);
            const Clock::time_point s1 = Clock::now();
            tracer.record("graph.simplify", s0, s1, setup_span, -1);
            layers->simplify_ms += ms_between(s0, s1);
        }
        const Clock::time_point t2 = Clock::now();
        service_ = std::make_unique<InferenceService>(
            std::move(graph), orpheus::EngineOptions{},
            service_options(max_batch_));
        const Clock::time_point t3 = Clock::now();
        tracer.record("service.construct", t2, t3, setup_span, -1);
        tracer.record_with_id(setup_span, "setup:serve", t0, t3, 0, -1);
        if (layers != nullptr) {
            layers->import_ms += ms_between(t0, t1);
            layers->compile_ms += ms_between(t2, t3);
        }
        return (ms_between(t0, t1) + ms_between(t2, t3)) / 1e3;
    }

    void
    warm_up(RunResult &r, LayerFigures &layers) override
    {
        // The standalone engine that defines the expected outputs is
        // itself checked against the float64 reference.
        const std::string what = "serve standalone engine";
        bool ok = check_close_to_reference(what, expected_.front(),
                                           reference_, r.failures);
        ok = check_top1(what, expected_.front(), reference_, r.failures) &&
             ok;
        for (const Tensor &e : expected_)
            ok = check_softmax_rows(what, e, r.failures) && ok;
        r.correct = r.correct && ok;

        for (int i = 0; i < kReplicas; ++i) {
            const orpheus::Engine &e =
                service_->engine(static_cast<std::size_t>(i));
            layers.arena_mb += static_cast<double>(e.arena_bytes()) / 1e6;
            layers.workspace_mb +=
                static_cast<double>(e.workspace_bytes()) / 1e6;
        }
        layers.constant_pack_mb =
            static_cast<double>(service_->pool().pack_cache().bytes()) / 1e6;
        input_name_ = service_->engine(0).request_inputs().front().name;

        // Every input once, concurrently.
        std::vector<std::future<InferenceResponse>> warm;
        for (const Tensor &input : inputs_)
            warm.push_back(service_->submit({{input_name_, input}}));
        submitted(static_cast<std::int64_t>(warm.size()), r);
        for (std::size_t i = 0; i < warm.size(); ++i) {
            InferenceResponse response = warm[i].get();
            ServedResponse s;
            s.ok = response.status.is_ok();
            s.input_index = i;
            if (s.ok)
                s.output = only_output(std::move(response.outputs));
            record(std::move(s), r);
        }
    }

    void
    measure(double seconds, RunResult &r) override
    {
        Tracer off;
        const ServeFigures f = drive(seconds, off, r);
        put(r, "serve_p50_ms", percentile(f.open.latency_ms, 0.50), "ms");
        put(r, "serve_rps",
            static_cast<double>(f.closed.completed) /
                (ms_between(f.closed.start, f.closed.last_done) / 1e3),
            "req/s");
        std::printf("serve: open loop %zu requests at %.0f req/s (%.2f "
                    "req per engine run), closed loop %zu requests (%.2f)\n",
                    f.open.completed, kOpenRate,
                    f.open.completed / f.open.engine_runs, f.closed.completed,
                    f.closed.completed / f.closed.engine_runs);
        // The tail is printed, not reported as a metric: with ~410
        // requests per run it spread by a third across seeds.
        std::printf("serve: open-loop latency deciles (ms):");
        for (int d = 1; d <= 9; ++d)
            std::printf(" %.1f", percentile(f.open.latency_ms, d / 10.0));
        std::printf("; p97 %.1f, p99 %.1f\n",
                    percentile(f.open.latency_ms, 0.97),
                    percentile(f.open.latency_ms, 0.99));
    }

    void
    measure_traced(double seconds, Tracer &tracer, LayerFigures &layers,
                   RunResult &r) override
    {
        Tracer off;
        const ServeFigures untraced = drive(seconds / 2, off, r);
        const ServeFigures traced = drive(seconds / 2, tracer, r);
        layers.queue_ms = median(traced.open.queue_ms);
        layers.run_ms = median(traced.open.run_ms);
        layers.overhead_ms = median(traced.open.overhead_ms);
        layers.late_ms = percentile(traced.open.late_ms, 0.99);
        layers.occupancy = static_cast<double>(traced.closed.completed) /
                           traced.closed.engine_runs;
        const double p50_untraced = percentile(untraced.open.latency_ms, 0.5);
        const double p50_traced = percentile(traced.open.latency_ms, 0.5);
        std::printf("tracing overhead (serve): open-loop p50 %.3f ms traced "
                    "vs %.3f ms untraced (%+.2f%%)\n",
                    p50_traced, p50_untraced,
                    100.0 * (p50_traced / p50_untraced - 1.0));
    }

    void
    finish(Tracer &tracer, RunResult &r) override
    {
        // The service's own counters must agree with what the client saw.
        const Clock::time_point s0 = Clock::now();
        const orpheus::ServiceStats stats = service_->stats();
        tracer.record("service.stats", s0, Clock::now(), 0, -1);
        if (stats.submitted != submitted_ ||
            stats.completed_ok != completed_ok_ ||
            stats.rejected_queue_full != 0) {
            r.failures.push_back(
                "serve: service stats disagree with the client (submitted " +
                std::to_string(stats.submitted) + ", completed_ok " +
                std::to_string(stats.completed_ok) + "; client saw " +
                std::to_string(submitted_) + " submitted, " +
                std::to_string(completed_ok_) + " OK)");
            r.correct = false;
        }
        if (!check_responses(static_cast<std::size_t>(submitted_),
                             responses_, expected_, r.failures))
            r.correct = false;
    }

  private:
    ServeFigures
    drive(double seconds, Tracer &tracer, RunResult &r)
    {
        Generator gen(*service_, input_name_, inputs_, tracer, seed_);
        ServeFigures f;
        f.open = gen.open_loop(kOpenRate, kOpenShare * seconds);
        f.closed = gen.closed_loop(kWorkers * max_batch_,
                                   (1.0 - kOpenShare) * seconds);
        submitted(static_cast<std::int64_t>(gen.submitted()), r);
        for (ServedResponse &s : gen.responses())
            record(std::move(s), r);
        return f;
    }

    void
    submitted(std::int64_t count, RunResult &r)
    {
        r.attempted += count;
        submitted_ += count;
    }

    /** Files one response; a response that is not OK is a failed
     *  operation. */
    void
    record(ServedResponse s, RunResult &r)
    {
        if (s.ok)
            ++completed_ok_;
        else
            ++r.failed;
        responses_.push_back(std::move(s));
    }

    std::vector<std::uint8_t> onnx_;
    std::vector<Tensor> inputs_;
    std::vector<Tensor> expected_;
    std::vector<double> reference_;
    std::unique_ptr<InferenceService> service_;
    std::string input_name_;
    int max_batch_;
    std::uint64_t seed_;
    std::int64_t submitted_ = 0, completed_ok_ = 0;
    std::vector<ServedResponse> responses_;
};

} // namespace

std::unique_ptr<Part>
make_serve_part(std::uint64_t seed, int max_batch)
{
    return std::make_unique<ServePart>(seed, max_batch);
}

} // namespace perfbench
