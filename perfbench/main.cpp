/**
 * @file
 * perfbench runner binary: runs one workload and prints its text
 * report followed, as the last line, by one JSON object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Usage:
 *   perfbench --workload <train_mlp|train_emb|serve|simulate>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--commit <id>] [--trace-out <file>]
 * A failed output check prints the result with "correct": false and
 * exits with code 1; bad arguments or an unfit build exit with code 2.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<train_mlp|train_emb|serve|simulate> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <id>] "
                 "[--trace-out <file>]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char** argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char* value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value, &end);
        } else if (arg == "--trace") {
            o.trace = std::strcmp(value, "0") != 0;
        } else if (arg == "--commit") {
            o.commit = value;
        } else if (arg == "--trace-out") {
            o.trace_out = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + arg).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

void
printMetric(const perfbench::Metric& m)
{
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
#if !defined(__OPTIMIZE__) || defined(PERFBENCH_SANITIZED)
    std::fprintf(stderr,
                 "perfbench: refusing to time an unoptimized or "
                 "sanitizer build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n");
    return 2;
#endif
    const Options options = parse(argc, argv);
    Result result;
    if (options.workload == "train_mlp")
        result = perfbench::runTrain(options, /*mlp_heavy=*/true);
    else if (options.workload == "train_emb")
        result = perfbench::runTrain(options, /*mlp_heavy=*/false);
    else if (options.workload == "serve")
        result = perfbench::runServe(options);
    else if (options.workload == "simulate")
        result = perfbench::runSimulate(options);
    else
        usage(("unknown workload " + options.workload).c_str());

    for (const auto& m : result.metrics) {
        result.check(std::isfinite(m.value), m.name + " is finite");
        printMetric(m);
    }
    for (const auto& m : result.extra)
        printMetric(m);
    if (options.trace && !options.trace_out.empty()) {
        const bool written = perfbench::spans().write(options.trace_out);
        std::printf("trace %zu spans %s %s\n",
                    perfbench::spans().spans().size(),
                    written ? "written to" : "could not be written to",
                    options.trace_out.c_str());
    }
    if (result.attempted == 0)
        result.check(false, "the run attempted work");

    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const auto& m = result.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            value + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return result.correct ? 0 : 1;
}
