/**
 * @file
 * Shared helpers for the bench harnesses: consistent headers and
 * number formatting so every binary prints paper-style rows, plus the
 * `--trace out.json` hook that lets any bench dump a Chrome trace of
 * its run (wall-clock spans and, where the bench exercises the DES,
 * simulated-time spans on the same export).
 */
#pragma once

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "tensor/simd.h"
#include "util/string_utils.h"

namespace recsim {
namespace bench {

/**
 * Enables tracing for the duration of a bench run when the binary is
 * invoked with `--trace <path>` (or `--trace=<path>`); on destruction
 * writes the Chrome trace JSON to that path and prints the text
 * summary. With no --trace flag this is a no-op, so benchmark numbers
 * stay honest.
 *
 * Usage (first lines of main):
 *   bench::TraceSession trace(argc, argv);
 */
class TraceSession
{
  public:
    TraceSession(int argc, char** argv)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--trace" && i + 1 < argc)
                path_ = argv[i + 1];
            else if (arg.rfind("--trace=", 0) == 0)
                path_ = arg.substr(8);
        }
        if (path_.empty())
            return;
        obs::Tracer::global().reset();
        obs::Tracer::global().setEnabled(true);
        top_span_ = std::make_unique<obs::TraceSpan>("bench.main");
    }

    ~TraceSession()
    {
        if (path_.empty())
            return;
        top_span_.reset();
        obs::Tracer& tracer = obs::Tracer::global();
        tracer.setEnabled(false);
        if (tracer.writeChromeTrace(path_)) {
            std::cout << "\ntrace written to " << path_
                      << " (load in Perfetto or chrome://tracing)\n";
        } else {
            std::cerr << "failed to write trace to " << path_ << "\n";
        }
        std::cout << tracer.summary();
    }

    /** True when --trace was given and spans are being recorded. */
    bool active() const { return !path_.empty(); }

  private:
    std::string path_;
    std::unique_ptr<obs::TraceSpan> top_span_;
};

/** The CPU's "model name" from /proc/cpuinfo, or "unknown". */
inline std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const auto colon = line.find(':');
        if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
            continue;
        const auto start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "unknown" : line.substr(start);
    }
    return "unknown";
}

/** @p text as a JSON string literal (quotes and backslashes escaped). */
inline std::string
jsonString(const std::string& text)
{
    std::string quoted = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            quoted += '\\';
        quoted += c;
    }
    return quoted + "\"";
}

/**
 * Write the `"host"` member of a BENCH_*.json object, with a trailing
 * comma: the host that produced the numbers — cores, pool size, SIMD
 * tier (tensor::simd::activeKernels()), CPU model, build type and the
 * commit CMake was configured at ("unknown" outside a git checkout,
 * "<sha>-dirty" when tracked files had uncommitted changes). The same
 * fields as perfbench's host block.
 */
inline void
writeHostJson(std::ostream& out, std::size_t pool_threads)
{
    out << "  \"host\": {\"cores\": "
        << std::thread::hardware_concurrency()
        << ", \"pool\": " << pool_threads << ", \"simd\": "
        << jsonString(tensor::simd::activeKernels())
        << ", \"cpu\": " << jsonString(cpuModel())
        << ", \"build\": " << jsonString(RECSIM_BUILD_TYPE)
        << ", \"commit\": " << jsonString(RECSIM_COMMIT) << "},\n";
}

/** Print the standard bench banner. */
inline void
banner(const std::string& experiment, const std::string& paper_ref,
       const std::string& what)
{
    std::cout << "=== " << experiment << " — " << paper_ref << " ===\n"
              << what << "\n\n";
}

/** Format a throughput in k examples/s. */
inline std::string
kexps(double examples_per_second)
{
    return util::fixed(examples_per_second / 1000.0, 1) + "k";
}

/** Format a ratio like "2.25x". */
inline std::string
ratio(double value)
{
    return util::fixed(value, 2) + "x";
}

/** Format a percentage. */
inline std::string
pct(double fraction)
{
    return util::fixed(fraction * 100.0, 1) + "%";
}

} // namespace bench
} // namespace recsim
