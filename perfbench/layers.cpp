#include <algorithm>

#include "bench.h"
#include "graph/step_graph.h"

namespace perfbench {

using namespace recsim;

void
addCommonLayerMetrics(Result& result,
                      const std::vector<model::DlrmConfig>& models,
                      bool fuse, double overhead,
                      const obs::PoolSnapshot& pool, double units)
{
    // Lower every model a fixed number of times in all, so a workload
    // with one model times as many builds as one with many.
    constexpr std::size_t kBuilds = 64;
    const std::size_t rounds =
        std::max<std::size_t>(1, kBuilds / models.size());
    double build_s = 0.0, nodes = 0.0, flops = 0.0, lookups = 0.0;
    for (const model::DlrmConfig& m : models) {
        const double t0 = nowSeconds();
        for (std::size_t r = 0; r < rounds; ++r) {
            graph::StepGraph graph = graph::buildModelStepGraph(m);
            if (fuse)
                graph::fusePass(graph);
            if (r == 0) {
                const graph::WorkSummary work = graph::summarize(graph);
                nodes += static_cast<double>(graph.numNodes());
                flops += work.mlp_flops + work.interaction_flops;
                lookups += work.embedding_lookups;
            }
        }
        build_s += (nowSeconds() - t0) / static_cast<double>(rounds);
    }
    const double n = static_cast<double>(models.size());
    result.add("trace.overhead", overhead, "ratio");
    result.add("graph.build_ms", 1e3 * build_s / n, "ms");
    result.add("graph.nodes", nodes / n, "count");
    result.add("graph.mflop_per_example", 1e-6 * flops / n, "MFLOP");
    result.add("graph.lookups_per_example", lookups / n, "count");
    result.add("util.pool.jobs_per_unit",
               static_cast<double>(pool.jobs) / units, "count");
    result.add("util.pool.tasks_per_unit",
               static_cast<double>(pool.tasks) / units, "count");
}

} // namespace perfbench
