/**
 * @file
 * perfbench entry point.
 *
 *   perfbench --workload <batched|unbatched> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-file <path>]
 *   perfbench --selftest
 *
 * Prints a human-readable report, then, as its last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
 * carry every end-to-end metric, traced runs every per-layer metric.
 * Exits 0 when every output check passed, 1 when one failed, 2 on a
 * usage or set-up error (no JSON line then).
 */
#include "bench.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <batched|unbatched> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n"
                 "       perfbench --selftest\n");
}

void
print_json(const perfbench::RunResult &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));
    const char *sep = "";
    for (const auto &[name, metric] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), metric.value, metric.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return perfbench::run_selftest();
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atof(value);
        } else if (arg == "--trace") {
            options.trace = std::strcmp(value, "0") != 0;
        } else if (arg == "--trace-file") {
            options.trace_path = value;
        } else {
            usage();
            return 2;
        }
    }
    if (!have_workload || !(options.seconds > 0)) {
        usage();
        return 2;
    }

    perfbench::RunResult result;
    try {
        result = perfbench::run_workload(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    for (const auto &[name, metric] : result.metrics)
        std::printf("  %-26s %14.4f %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
    for (const std::string &f : result.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("attempted %lld, failed %lld, outputs %s\n",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed),
                result.correct ? "correct" : "WRONG");
    std::fflush(stdout);
    print_json(result);
    return result.correct ? 0 : 1;
}
