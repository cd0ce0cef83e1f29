/**
 * @file
 * The workloads, the edge part of a run, and helpers both parts share.
 *
 * Every run has the same two parts and reports every metric. The edge
 * part runs the paper's five models in fp32 plus ResNet-18 and
 * MobileNetV1 in int8, batch 1, one thread, interleaved round by round.
 * The serving part (serve.cpp) drives WRN-40-2 behind InferenceService.
 * The workloads differ in the service's batching:
 *
 *  batched    max_batch 4 with a 2 ms window: fused runs go through
 *             the batching path of the service and the engine;
 *  unbatched  max_batch 1: the same traffic bypasses batching, so a
 *             batching change should move only `batched`.
 *
 * Untraced runs report the end-to-end metrics. A traced run measures
 * each part untraced for half of its time, then traced for the other
 * half, and reports per-layer metrics taken around the public calls.
 */
#include "bench.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "core/threadpool.hpp"
#include "graph/passes/pass.hpp"
#include "models/model_zoo.hpp"
#include "onnx/exporter.hpp"
#include "onnx/importer.hpp"
#include "quant/quantizer.hpp"
#include "runtime/service.hpp"

namespace perfbench {

// --- Small utilities --------------------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
rss_mb()
{
    std::ifstream statm("/proc/self/statm");
    long pages_total = 0, pages_resident = 0;
    statm >> pages_total >> pages_resident;
    return static_cast<double>(pages_resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double
settled_rss_mb()
{
    // Hand freed heap pages back first, so that set-up is charged for
    // the memory it uses, not credited with what earlier steps freed.
    malloc_trim(0);
    return rss_mb();
}

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

orpheus::Tensor
seeded_input(const orpheus::Shape &shape, std::uint64_t seed)
{
    orpheus::Tensor t(shape);
    float *p = t.data<float>();
    std::uint64_t state = seed;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        const double u = static_cast<double>(splitmix64(state) >> 11) *
                         (1.0 / 9007199254740992.0); // [0, 1)
        p[i] = static_cast<float>(2.0 * u - 1.0);
    }
    return t;
}

int
available_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

int
reference_threads()
{
    return std::min(4, available_cpus());
}

orpheus::Graph
import_or_throw(const std::vector<std::uint8_t> &bytes)
{
    orpheus::Graph graph;
    const orpheus::Status status = orpheus::import_onnx(bytes, graph);
    if (!status.is_ok())
        throw std::runtime_error("import_onnx: " + status.to_string());
    return graph;
}

orpheus::Tensor
only_output(std::map<std::string, orpheus::Tensor> outputs)
{
    if (outputs.size() != 1)
        throw std::runtime_error("expected exactly one model output");
    return std::move(outputs.begin()->second);
}

void
put(RunResult &r, const std::string &name, double value,
    const std::string &unit)
{
    r.metrics[name] = Metric{value, unit};
}

void
put_layer_metrics(RunResult &r, const LayerFigures &f)
{
    put(r, "onnx.import_ms", f.import_ms, "ms");
    put(r, "graph.simplify_ms", f.simplify_ms, "ms");
    put(r, "runtime.compile_ms", f.compile_ms, "ms");
    put(r, "runtime.arena_mb", f.arena_mb, "MB");
    put(r, "runtime.workspace_mb", f.workspace_mb, "MB");
    const auto rate = [](double amount, double ms) {
        return ms > 0 ? amount / (ms * 1e6) : 0.0; // per ns == G per s
    };
    for (int c = 0; c < kOpClasses; ++c) {
        const std::string name = op_class_name(static_cast<OpClass>(c));
        put(r, "ops." + name + ".ms", f.op_ms[c], "ms");
    }
    const auto cls = [](OpClass c) { return static_cast<int>(c); };
    for (OpClass c : {OpClass::kConv, OpClass::kDepthwise}) {
        put(r, std::string("ops.") + op_class_name(c) + ".gflops",
            rate(f.op_flops[cls(c)], f.op_ms[cls(c)]), "GFLOP/s");
    }
    put(r, "ops.qconv.gops",
        rate(f.op_flops[cls(OpClass::kQConv)], f.op_ms[cls(OpClass::kQConv)]),
        "GOP/s");
    for (OpClass c : {OpClass::kGemm, OpClass::kActivation, OpClass::kPool,
                      OpClass::kQuantize}) {
        put(r, std::string("ops.") + op_class_name(c) + ".gbps",
            rate(f.op_bytes[cls(c)], f.op_ms[cls(c)]), "GB/s");
    }
    put(r, "runtime.dispatch_ms", f.dispatch_ms, "ms");
    put(r, "service.queue_ms", f.queue_ms, "ms");
    put(r, "service.run_ms", f.run_ms, "ms");
    put(r, "service.overhead_ms", f.overhead_ms, "ms");
    put(r, "service.batch_occupancy", f.occupancy, "req/run");
    put(r, "pool.constant_pack_mb", f.constant_pack_mb, "MB");
    put(r, "loadgen.late_ms", f.late_ms, "ms");
    put(r, "threadpool.speedup", f.threadpool_speedup, "x");
}

namespace {

using orpheus::Engine;
using orpheus::Graph;
using orpheus::Tensor;

// --- Edge workloads ---------------------------------------------------------

std::map<std::string, Tensor>
feed(const Engine &engine, const Tensor &input)
{
    return {{engine.request_inputs().front().name, input}};
}

struct EdgeModelSpec {
    const char *zoo_name;
    const char *metric;
    bool int8;
    /** Index of the fp32 model whose input and reference this one
     *  shares (its own index for fp32 models). */
    std::size_t fp32_index;
};

constexpr EdgeModelSpec kEdgeModels[] = {
    {"wrn-40-2", "wrn40_2_ms", false, 0},
    {"mobilenet-v1", "mobilenet_v1_ms", false, 1},
    {"resnet-18", "resnet18_ms", false, 2},
    {"resnet-50", "resnet50_ms", false, 3},
    {"inception-v3", "inception_v3_ms", false, 4},
    {"resnet-18", "resnet18_int8_ms", true, 2},
    {"mobilenet-v1", "mobilenet_v1_int8_ms", true, 1},
};

struct EdgeModel {
    EdgeModelSpec spec;
    std::vector<std::uint8_t> onnx;
    Tensor input;
    std::vector<double> reference; ///< float64 output (fp32 models)
    std::unique_ptr<Engine> engine;
    Tensor checked_output; ///< the warm-up output, checked once
    std::vector<double> run_ms;
};

/**
 * Builds every edge model offline: zoo graph (fixed weight seeds),
 * quantization of the int8 models, ONNX export, the seeded input and
 * the float64 reference output. None of this is timed.
 */
std::vector<EdgeModel>
prepare_edge_models(std::uint64_t seed)
{
    const Clock::time_point start = Clock::now();
    double reference_ms = 0, quantize_ms = 0;
    std::vector<EdgeModel> models;
    std::map<std::string, Graph> zoo_graphs;
    for (const EdgeModelSpec &spec : kEdgeModels) {
        EdgeModel m;
        m.spec = spec;
        if (zoo_graphs.count(spec.zoo_name) == 0)
            zoo_graphs.emplace(spec.zoo_name,
                               orpheus::models::by_name(spec.zoo_name));
        const Graph &zoo = zoo_graphs.at(spec.zoo_name);
        const Clock::time_point t0 = Clock::now();
        if (spec.int8) {
            m.onnx = orpheus::export_onnx(orpheus::quantize_model(zoo));
            m.input = models[spec.fp32_index].input;
            quantize_ms += ms_between(t0, Clock::now());
        } else {
            m.onnx = orpheus::export_onnx(zoo);
            m.input = seeded_input(zoo.inputs().front().shape,
                                   seed * 1000003ULL + models.size());
            m.reference = reference_run(zoo, m.input, reference_threads());
            reference_ms += ms_between(t0, Clock::now());
        }
        models.push_back(std::move(m));
    }
    std::printf("offline preparation %.2f s: float64 references %.2f s, "
                "quantization %.2f s\n",
                ms_between(start, Clock::now()) / 1e3, reference_ms / 1e3,
                quantize_ms / 1e3);
    return models;
}

/** One set-up: import and compile every model. Returns seconds. */
double
set_up_edge(std::vector<EdgeModel> &models, Tracer &tracer,
            LayerFigures *layers)
{
    for (EdgeModel &m : models)
        m.engine.reset();
    double import_ms = 0, simplify_ms = 0, compile_ms = 0;
    const std::int64_t setup_span = tracer.reserve_id();
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < models.size(); ++i) {
        EdgeModel &m = models[i];
        const auto r = static_cast<std::int64_t>(i);
        const Clock::time_point t0 = Clock::now();
        Graph graph = import_or_throw(m.onnx);
        const Clock::time_point t1 = Clock::now();
        tracer.record("onnx.import", t0, t1, setup_span, r);
        import_ms += ms_between(t0, t1);
        if (layers != nullptr) {
            // The engine simplifies its own copy; this times the same
            // pipeline on a second import, outside the compile span.
            Graph copy = import_or_throw(m.onnx);
            const Clock::time_point s0 = Clock::now();
            orpheus::simplify_graph(copy);
            const Clock::time_point s1 = Clock::now();
            tracer.record("graph.simplify", s0, s1, setup_span, r);
            simplify_ms += ms_between(s0, s1);
        }
        const Clock::time_point t2 = Clock::now();
        m.engine = std::make_unique<Engine>(std::move(graph));
        const Clock::time_point t3 = Clock::now();
        tracer.record("runtime.compile", t2, t3, setup_span, r);
        compile_ms += ms_between(t2, t3);
    }
    const Clock::time_point end = Clock::now();
    tracer.record_with_id(setup_span, "setup:edge", start, end, 0, -1);
    if (layers != nullptr) {
        layers->import_ms += import_ms;
        layers->simplify_ms += simplify_ms;
        layers->compile_ms += compile_ms;
    }
    return (import_ms + compile_ms) / 1e3;
}

/**
 * One run() of @p m, timed from @p t0 to @p t1. Its output must be
 * bitwise equal to the model's checked output. Returns false when the
 * run threw, which counts as a failed operation.
 */
bool
checked_run(EdgeModel &m, RunResult &r, Clock::time_point &t0,
            Clock::time_point &t1)
{
    ++r.attempted;
    std::map<std::string, Tensor> out;
    t0 = Clock::now();
    try {
        out = m.engine->run(feed(*m.engine, m.input));
    } catch (const std::exception &e) {
        ++r.failed;
        r.failures.push_back(std::string(m.spec.metric) + ": " + e.what());
        return false;
    }
    t1 = Clock::now();
    if (!check_bitwise(std::string(m.spec.metric) + " repeated run",
                       only_output(std::move(out)), m.checked_output,
                       r.failures))
        r.correct = false;
    return true;
}

Clock::time_point
deadline_after(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/** Runs whole rounds of every model until @p seconds have passed. */
void
edge_rounds(std::vector<EdgeModel> &models, double seconds, RunResult &r)
{
    for (EdgeModel &m : models)
        m.run_ms.clear();
    const Clock::time_point stop = deadline_after(seconds);
    do {
        for (EdgeModel &m : models) {
            Clock::time_point t0, t1;
            if (checked_run(m, r, t0, t1))
                m.run_ms.push_back(ms_between(t0, t1));
        }
    } while (Clock::now() < stop);
}

/**
 * The traced pass: run() timed as one span, then every plan step again
 * through run_step(), each its own span, grouped by op class.
 */
double
edge_traced_rounds(std::vector<EdgeModel> &models, double seconds,
                   Tracer &tracer, LayerFigures &layers, RunResult &r)
{
    struct StepInfo {
        StepCost cost;
        std::string span_name;
    };
    const std::size_t n = models.size();
    std::vector<std::vector<StepInfo>> steps(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (const orpheus::PlanStep &s : models[i].engine->steps()) {
            const StepCost c = step_cost(s);
            steps[i].push_back(
                {c, std::string("runtime.run_step:") +
                        op_class_name(c.op_class)});
        }
    }
    // Per model: run() times and per-class step-time sums per round.
    std::vector<std::vector<double>> run_ms(n);
    std::vector<std::vector<std::array<double, kOpClasses>>> class_ms(n);
    std::vector<std::vector<double>> steps_ms(n);
    std::int64_t request = 0;
    const Clock::time_point stop = deadline_after(seconds);
    do {
        for (std::size_t i = 0; i < n; ++i, ++request) {
            EdgeModel &m = models[i];
            Clock::time_point t0, t1;
            if (!checked_run(m, r, t0, t1))
                continue;
            const std::int64_t parent = tracer.reserve_id();
            tracer.record("runtime.run", t0, t1, parent, request);
            run_ms[i].push_back(ms_between(t0, t1));
            std::array<double, kOpClasses> per_class{};
            double total = 0;
            for (std::size_t s = 0; s < steps[i].size(); ++s) {
                const Clock::time_point s0 = Clock::now();
                m.engine->run_step(s);
                const Clock::time_point s1 = Clock::now();
                tracer.record(steps[i][s].span_name, s0, s1, parent, request);
                const double ms = ms_between(s0, s1);
                per_class[static_cast<int>(steps[i][s].cost.op_class)] += ms;
                total += ms;
            }
            tracer.record_with_id(parent,
                                  std::string("inference:") + m.spec.metric,
                                  t0, Clock::now(), 0, request);
            class_ms[i].push_back(per_class);
            steps_ms[i].push_back(total);
        }
    } while (Clock::now() < stop);

    double traced_run_ms = 0;
    std::printf("op-class share of each model's summed step time:\n");
    for (std::size_t i = 0; i < n; ++i) {
        std::printf("  %-22s", models[i].spec.metric);
        const double steps_total = median(steps_ms[i]);
        for (int c = 0; c < kOpClasses; ++c) {
            std::vector<double> v;
            for (const auto &round : class_ms[i])
                v.push_back(round[c]);
            layers.op_ms[c] += median(v);
            if (median(v) > 0)
                std::printf(" %s %.1f%%", op_class_name(static_cast<OpClass>(c)),
                            100.0 * median(v) / steps_total);
        }
        std::printf("\n");
        for (const StepInfo &s : steps[i]) {
            layers.op_flops[static_cast<int>(s.cost.op_class)] +=
                s.cost.flops;
            layers.op_bytes[static_cast<int>(s.cost.op_class)] +=
                s.cost.bytes;
        }
        layers.dispatch_ms += median(run_ms[i]) - median(steps_ms[i]);
        traced_run_ms += median(run_ms[i]);
    }
    return traced_run_ms;
}

double
sum_of_medians(const std::vector<EdgeModel> &models)
{
    double total = 0;
    for (const EdgeModel &m : models)
        total += median(m.run_ms);
    return total;
}

/** Threads of the multi-threaded passes: min(4, nproc). */
int
parallel_threads()
{
    return std::min(4, available_cpus());
}

/** Rounds the traced pass runs at parallel_threads() to estimate the
 *  thread pool's speed-up. */
constexpr int kParallelRounds = 3;

/**
 * The seven models. Timed on one thread: at 4 threads on a shared
 * 4-vCPU host the model latencies swung 2-3x between runs (Inception-v3
 * 262-697 ms over ten runs while one-thread runs stayed within +-10%),
 * which no regression bound can hold. The thread pool is still run in
 * every run — the outputs at parallel_threads() must be bitwise equal
 * to the one-thread outputs — and traced runs report its speed-up as a
 * per-layer figure.
 */
class EdgePart : public Part
{
  public:
    explicit EdgePart(std::uint64_t seed) : models_(prepare_edge_models(seed))
    {
    }

    double
    set_up(Tracer &tracer, LayerFigures *layers) override
    {
        return set_up_edge(models_, tracer, layers);
    }

    void
    warm_up(RunResult &r, LayerFigures &layers) override
    {
        // One run per model, checked against the independent references.
        for (EdgeModel &m : models_) {
            ++r.attempted;
            m.checked_output =
                only_output(m.engine->run(feed(*m.engine, m.input)));
            const std::vector<double> &ref =
                models_[m.spec.fp32_index].reference;
            const std::string what = m.spec.metric;
            bool ok = check_softmax_rows(what, m.checked_output, r.failures);
            if (m.spec.int8) {
                ok = check_top1(what + " vs fp32 reference", m.checked_output,
                                ref, r.failures) && ok;
            } else {
                ok = check_close_to_reference(what, m.checked_output, ref,
                                              r.failures) && ok;
                ok = check_top1(what, m.checked_output, ref, r.failures) &&
                     ok;
            }
            r.correct = r.correct && ok;
            layers.arena_mb +=
                static_cast<double>(m.engine->arena_bytes()) / 1e6;
            layers.workspace_mb +=
                static_cast<double>(m.engine->workspace_bytes()) / 1e6;
        }
    }

    void
    measure(double seconds, RunResult &r) override
    {
        edge_rounds(models_, seconds, r);
        for (const EdgeModel &m : models_)
            put(r, m.spec.metric, median(m.run_ms), "ms");
    }

    void
    measure_traced(double seconds, Tracer &tracer, LayerFigures &layers,
                   RunResult &r) override
    {
        edge_rounds(models_, seconds / 2, r);
        const double untraced = sum_of_medians(models_);
        const double traced =
            edge_traced_rounds(models_, seconds / 2, tracer, layers, r);
        std::printf("tracing overhead (edge): run() summed over models "
                    "%.3f ms traced vs %.3f ms untraced (%+.2f%%)\n",
                    traced, untraced, 100.0 * (traced / untraced - 1.0));
        orpheus::set_global_num_threads(parallel_threads());
        for (EdgeModel &m : models_)
            m.run_ms.clear();
        for (int round = 0; round < kParallelRounds; ++round) {
            for (EdgeModel &m : models_) {
                Clock::time_point t0, t1;
                if (checked_run(m, r, t0, t1))
                    m.run_ms.push_back(ms_between(t0, t1));
            }
        }
        orpheus::set_global_num_threads(1);
        layers.threadpool_speedup = untraced / sum_of_medians(models_);
    }

    void
    finish(Tracer &, RunResult &r) override
    {
        // The thread count must not change a single bit of any output.
        orpheus::set_global_num_threads(parallel_threads());
        for (EdgeModel &m : models_) {
            ++r.attempted;
            const Tensor many =
                only_output(m.engine->run(feed(*m.engine, m.input)));
            if (!check_bitwise(std::string(m.spec.metric) + " at " +
                                   std::to_string(parallel_threads()) +
                                   " threads vs 1 thread",
                               many, m.checked_output, r.failures))
                r.correct = false;
        }
        orpheus::set_global_num_threads(1);
    }

  private:
    std::vector<EdgeModel> models_;
};

/** Share of the run's measured time spent on the edge models; the rest
 *  goes to serving. */
constexpr double kEdgeShare = 0.4;

} // namespace

// --- Workloads --------------------------------------------------------------

RunResult
run_workload(const RunOptions &o)
{
    int max_batch = 0;
    if (o.workload == "batched")
        max_batch = 4;
    else if (o.workload == "unbatched")
        max_batch = 1;
    else
        throw std::runtime_error("unknown workload '" + o.workload + "'");

    // Fix glibc's allocation thresholds for the whole run. By default
    // they adapt to the blocks freed so far, so whether a repeated
    // set-up gets its 100+ MB of buffers from the heap or from fresh,
    // page-faulting mmaps varied from run to run (0 or ~27,000 minor
    // faults per set-up, 0.20 vs 0.29 s). With these, every set-up after
    // the first reuses the heap and setup_s times the library's own work.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    // Everything is timed on one global thread; offline preparation
    // happens here, outside all timing.
    orpheus::set_global_num_threads(1);
    std::vector<std::unique_ptr<Part>> parts;
    parts.push_back(std::make_unique<EdgePart>(o.seed));
    parts.push_back(make_serve_part(o.seed, max_batch));

    RunResult r;
    Tracer tracer;
    LayerFigures layers;
    const double rss_before = settled_rss_mb();
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        // Per-layer set-up figures come from the last set-up alone.
        const bool last = rep == kSetupRepeats - 1;
        tracer.enabled = o.trace && last;
        double total = 0;
        for (auto &part : parts)
            total += part->set_up(tracer, o.trace && last ? &layers : nullptr);
        setup_s.push_back(total);
    }
    tracer.enabled = false;
    for (auto &part : parts)
        part->warm_up(r, layers);

    const double shares[] = {kEdgeShare, 1.0 - kEdgeShare};
    if (!o.trace) {
        for (std::size_t i = 0; i < parts.size(); ++i)
            parts[i]->measure(shares[i] * o.seconds, r);
        put(r, "setup_s", median(setup_s), "s");
        put(r, "rss_mb", rss_mb() - rss_before, "MB");
    } else {
        tracer.enabled = true;
        for (std::size_t i = 0; i < parts.size(); ++i)
            parts[i]->measure_traced(shares[i] * o.seconds, tracer, layers,
                                     r);
        put_layer_metrics(r, layers);
    }
    for (auto &part : parts)
        part->finish(tracer, r);
    if (o.trace && !o.trace_path.empty()) {
        if (!tracer.write_chrome_json(o.trace_path))
            throw std::runtime_error("cannot write " + o.trace_path);
        std::printf("trace: %zu spans written to %s\n", tracer.size(),
                    o.trace_path.c_str());
    }
    return r;
}

} // namespace perfbench
