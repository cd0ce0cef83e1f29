/**
 * @file
 * Shared declarations of the repository benchmark (perfbench).
 *
 * The benchmark drives Orpheus only through its public API and times
 * every layer from the outside, around the calls into it: import_onnx,
 * simplify_graph, the Engine constructor, Engine::run / run_step, and
 * InferenceService::submit / stats. Nothing here reaches into the
 * library's internals.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> values);
/** Nearest-rank percentile, @p q in [0, 1]. */
double percentile(std::vector<double> values, double q);

/** Resident set size of this process, in MB (10^6 bytes), from
 *  /proc/self/statm. */
double rss_mb();
/** rss_mb() after returning freed heap pages to the system. */
double settled_rss_mb();

// --- Inputs ---------------------------------------------------------------

/** Deterministic uniform [-1, 1) tensor of @p shape from @p seed
 *  (splitmix64, so the values do not depend on the standard library). */
orpheus::Tensor seeded_input(const orpheus::Shape &shape, std::uint64_t seed);

// --- Float64 reference interpreter (reference.cpp) ------------------------

/**
 * Runs @p graph — the unsimplified zoo graph — in float64 on @p input
 * (its single input) and returns its single output. Covers the ops the
 * zoo graphs use: Conv, BatchNormalization, Relu, MaxPool, AveragePool,
 * GlobalAveragePool, Add, Concat, Flatten, Gemm and Softmax; anything
 * else throws. Convolutions run on up to @p threads std::threads.
 */
std::vector<double> reference_run(const orpheus::Graph &graph,
                                  const orpheus::Tensor &input,
                                  int threads);

// --- Output checks (checks.cpp) --------------------------------------------

/**
 * An fp32 probability p passes against the float64 reference q when
 * |p - q| <= kProbRtol * q + kProbAtol. The relative part covers the
 * fp32 rounding carried through the network's logits (up to about
 * 1.1e-4 on the zoo models); the absolute part only covers
 * probabilities so small that fp32 holds them as denormals or zero.
 * A softmax row sum must lie within kRowSumTolerance of 1.
 */
inline constexpr double kProbRtol = 1e-3;
inline constexpr double kProbAtol = 1e-30;
inline constexpr double kRowSumTolerance = 1e-4;

/** Appends one line to @p failures per violated property. Each check
 *  returns true when it passed. */
using Failures = std::vector<std::string>;

bool check_close_to_reference(const std::string &what,
                              const orpheus::Tensor &output,
                              const std::vector<double> &reference,
                              Failures &failures);
/** Top-1 of @p output equals the reference's arg-max. A class whose
 *  tolerance band (kProbRtol, kProbAtol) overlaps the best class's is
 *  accepted too: the reference cannot separate the two. */
bool check_top1(const std::string &what, const orpheus::Tensor &output,
                const std::vector<double> &reference, Failures &failures);
bool check_softmax_rows(const std::string &what,
                        const orpheus::Tensor &output, Failures &failures);
bool check_bitwise(const std::string &what, const orpheus::Tensor &a,
                   const orpheus::Tensor &b, Failures &failures);

/** One served request as the client saw it. */
struct ServedResponse {
    bool ok = false;
    std::size_t input_index = 0;
    orpheus::Tensor output;
};

/** Every submitted request has a response, and every OK response's
 *  output is bitwise equal to @p expected[input_index]. Responses that
 *  are not OK are the caller's failed operations. */
bool check_responses(std::size_t submitted,
                     const std::vector<ServedResponse> &responses,
                     const std::vector<orpheus::Tensor> &expected,
                     Failures &failures);

std::size_t argmax(const orpheus::Tensor &output);

// --- FLOP / byte model (cost_model.cpp) ------------------------------------

enum class OpClass {
    kConv,
    kDepthwise,
    kGemm,
    kActivation,
    kPool,
    kQConv,
    kQuantize,
    kOther,
};
inline constexpr int kOpClasses = 8;
const char *op_class_name(OpClass c);

/** Work of one plan step, computed from the plan's shapes and the node
 *  attributes. Bytes are the compulsory traffic (every input, weight and
 *  output touched once), computed, not measured. */
struct StepCost {
    OpClass op_class = OpClass::kOther;
    double flops = 0; ///< multiply-adds count as 2; int8 ops for QLinearConv
    double bytes = 0;
};

StepCost step_cost(const orpheus::PlanStep &step);

// --- Tracing (trace.cpp) ----------------------------------------------------

/**
 * In-memory span recorder written out as Chrome trace-event JSON. Spans
 * are recorded only while enabled; a disabled tracer costs one branch.
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        Clock::time_point start;
        double dur_ms;
        std::int64_t id;
        std::int64_t parent;
        std::int64_t request;
        int tid;
    };

    bool enabled = false;

    /** Records a finished span and returns its id (0 when disabled). */
    std::int64_t record(const std::string &name, Clock::time_point start,
                        Clock::time_point end, std::int64_t parent,
                        std::int64_t request, int tid = 0);
    /** Reserves an id for a parent span recorded after its children. */
    std::int64_t reserve_id();
    void record_with_id(std::int64_t id, const std::string &name,
                        Clock::time_point start, Clock::time_point end,
                        std::int64_t parent, std::int64_t request,
                        int tid = 0);

    std::size_t size() const { return spans_.size(); }
    /** Writes {"traceEvents": [...]} to @p path; false on I/O error. */
    bool write_chrome_json(const std::string &path) const;

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
    std::int64_t next_id_ = 1;
    Clock::time_point origin_ = Clock::now();
};

// --- Workloads (workloads.cpp) ----------------------------------------------

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_path;
};

/** Named metric value with its unit. */
struct Metric {
    double value;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::map<std::string, Metric> metrics;
    Failures failures;
};

/** Runs one workload. Throws on set-up errors. */
RunResult run_workload(const RunOptions &options);

// --- Helpers shared by the workloads (workloads.cpp) -------------------------

/** Set-up is repeated this many times per run; setup_s is the median. */
inline constexpr int kSetupRepeats = 9;

/** CPUs in this process's affinity mask. */
int available_cpus();
/** Threads the float64 interpreter uses (it runs outside timing). */
int reference_threads();

orpheus::Graph import_or_throw(const std::vector<std::uint8_t> &bytes);
/** The single output of an engine or service run. */
orpheus::Tensor only_output(std::map<std::string, orpheus::Tensor> outputs);

void put(RunResult &r, const std::string &name, double value,
         const std::string &unit);

/** Per-layer figures of a traced pass. A layer the workload does not
 *  exercise reads 0. */
struct LayerFigures {
    // Set-up, summed over the run's models and its service.
    double import_ms = 0, simplify_ms = 0, compile_ms = 0;
    double arena_mb = 0, workspace_mb = 0;
    // Kernels: per inference, summed over models.
    double op_ms[kOpClasses] = {};
    double op_flops[kOpClasses] = {};
    double op_bytes[kOpClasses] = {};
    double dispatch_ms = 0;
    // Serving.
    double queue_ms = 0, run_ms = 0, overhead_ms = 0, occupancy = 0;
    double constant_pack_mb = 0, late_ms = 0;
    // Threading: summed 1-thread model medians over summed N-thread ones.
    double threadpool_speedup = 0;
};

/** Every per-layer metric, from @p figures. */
void put_layer_metrics(RunResult &r, const LayerFigures &figures);

/**
 * One part of a run: the seven edge models (workloads.cpp) or the
 * serving stack (serve.cpp). A run prepares each part offline, sets
 * each up several times, warms each up (checking outputs against the
 * references), measures each for its share of the run, and ends with
 * each part's remaining checks.
 */
class Part
{
  public:
    virtual ~Part() = default;
    /** One set-up (import and compile); returns its seconds. Adds the
     *  per-layer set-up figures to @p layers when it is not null. */
    virtual double set_up(Tracer &tracer, LayerFigures *layers) = 0;
    virtual void warm_up(RunResult &r, LayerFigures &layers) = 0;
    /** Untraced measurement; adds the part's end-to-end metrics. */
    virtual void measure(double seconds, RunResult &r) = 0;
    /** Half of @p seconds untraced, half traced; adds to @p layers and
     *  prints the tracing overhead. */
    virtual void measure_traced(double seconds, Tracer &tracer,
                                LayerFigures &layers, RunResult &r) = 0;
    virtual void finish(Tracer &tracer, RunResult &r) = 0;
};

std::unique_ptr<Part> make_serve_part(std::uint64_t seed, int max_batch);

// --- Self-tests (selftest.cpp) -----------------------------------------------

/** Negative controls and cost-model checks; returns the process exit
 *  code (0 when every self-test passed). */
int run_selftest();

} // namespace perfbench
