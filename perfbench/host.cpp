#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "tensor/simd.h"

namespace perfbench {

void
Result::check(bool ok, const std::string& what)
{
    std::cout << "check " << (ok ? "ok  " : "FAIL") << "  " << what
              << "\n";
    correct = correct && ok;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

} // namespace

void
printHostBlock(const Options& options, std::size_t pool_threads)
{
    std::cout << "host cores=" << std::thread::hardware_concurrency()
              << " pool="
              << (pool_threads ? std::to_string(pool_threads)
                               : std::string("unused"))
              << " simd=" << recsim::tensor::simd::activeKernels()
              << " build=" << PERFBENCH_BUILD_TYPE
              << " commit=" << options.commit << "\n"
              << "host cpu=" << cpuModel() << "\n";
}

} // namespace perfbench
