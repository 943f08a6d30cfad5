/**
 * @file
 * Golden pin of the analytical model's headline numbers, so that a
 * refactor of lowering, placement or pricing can show it changed
 * nothing. tests/data/golden_analytical.txt holds one `key value` line
 * per number, recorded at %.17g:
 *
 *  - `fig10|fig11|fig12.<point>.<cpu|gpu>.<field>`: the headline fields
 *    of every Fig 10/11/12 DesignSpaceExplorer point on the CPU and Big
 *    Basin setups;
 *  - `nodes.<setup>.<fused|unfused>.<index>.<node id>`: every
 *    nodeBreakdown() entry of one config per platform and placement;
 *  - `fleet50.<resource>.mean`: the means of the eight Fig 5
 *    utilizationStudy distributions of a 50-run study.
 *
 * Values compare at a relative 1e-12, so another libm cannot fail the
 * test while a changed formula still does. A mismatch names the key and
 * prints the new value in the file's format, so against an empty file
 * the test prints every line of a fresh record. DES outputs are not
 * pinned here: one ULP can move a DES tick.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.h"
#include "cost/iteration_model.h"
#include "fleet/fleet_sim.h"
#include "model/config.h"
#include "util/logging.h"

namespace recsim {
namespace {

using placement::EmbeddingPlacement;
using Values = std::vector<std::pair<std::string, double>>;

void
addEstimate(Values& out, const std::string& key,
            const cost::IterationEstimate& e)
{
    out.push_back({key + ".feasible", e.feasible ? 1.0 : 0.0});
    out.push_back({key + ".throughput", e.throughput});
    out.push_back({key + ".iteration_seconds", e.iteration_seconds});
    out.push_back({key + ".serial_sum_seconds", e.serial_sum_seconds});
    out.push_back({key + ".critical_path_seconds",
                   e.critical_path_seconds});
    out.push_back({key + ".power_watts", e.power_watts});
}

void
addRows(Values& out, const std::string& prefix,
        const std::vector<core::SweepRow>& rows)
{
    for (const core::SweepRow& row : rows) {
        const std::string key = prefix + "." + row.label;
        addEstimate(out, key + ".cpu", row.cpu);
        addEstimate(out, key + ".gpu", row.gpu);
    }
}

/** The Fig 10, 11 and 12 grids of bench/fig1{0,1,2}_*.cpp. */
Values
explorerValues()
{
    const core::DesignSpaceExplorer explorer;
    Values out;
    addRows(out, "fig10",
            explorer.featureSweep({64, 256, 1024, 4096}, {4, 16, 64, 128}));
    const std::vector<std::size_t> batches = {
        50, 100, 200, 400, 800, 1600, 3200, 6400, 12800};
    for (const auto& [dense, sparse] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {256, 8}, {256, 32}, {1024, 64}}) {
        addRows(out, util::format("fig11.d{}_s{}", dense, sparse),
                explorer.batchSweep(dense, sparse, batches, batches));
    }
    addRows(out, "fig12",
            explorer.hashSweep(256, 64,
                               {10000, 30000, 100000, 300000, 1000000,
                                3000000, 10000000, 30000000, 100000000}));
    return out;
}

struct Setup
{
    std::string name;
    model::DlrmConfig model;
    cost::SystemConfig system;
};

/**
 * One config per platform and placement. Hybrid runs M3, whose tables
 * overflow GPU memory, so its plan splits tables between GPU and host.
 */
std::vector<Setup>
breakdownSetups()
{
    const auto m1 = model::DlrmConfig::m1Prod();
    const auto m3 = model::DlrmConfig::m3Prod();
    return {
        {"cpu", m1, cost::SystemConfig::cpuSetup(6, 8, 2, 200, 1)},
        {"bb_gpu_memory", m1,
         cost::SystemConfig::bigBasinSetup(EmbeddingPlacement::GpuMemory,
                                           1600)},
        {"bb_host_memory", m1,
         cost::SystemConfig::bigBasinSetup(EmbeddingPlacement::HostMemory,
                                           1600)},
        {"bb_remote_ps", m1,
         cost::SystemConfig::bigBasinSetup(EmbeddingPlacement::RemotePs,
                                           1600, 4)},
        {"bb_hybrid", m3,
         cost::SystemConfig::bigBasinSetup(EmbeddingPlacement::Hybrid,
                                           1600)},
        {"zion_gpu_memory", m1,
         cost::SystemConfig::zionSetup(EmbeddingPlacement::GpuMemory,
                                       1600)},
        {"zion_host_memory", m1,
         cost::SystemConfig::zionSetup(EmbeddingPlacement::HostMemory,
                                       1600)},
        {"zion_remote_ps", m1,
         cost::SystemConfig::zionSetup(EmbeddingPlacement::RemotePs, 1600,
                                       4)},
        {"zion_hybrid", m3,
         cost::SystemConfig::zionSetup(EmbeddingPlacement::Hybrid, 1600)},
    };
}

Values
breakdownValues()
{
    Values out;
    for (const Setup& s : breakdownSetups()) {
        for (const bool fused : {false, true}) {
            cost::CostParams params;
            params.fuse_step_graph = fused;
            const cost::IterationModel im(s.model, s.system, params);
            const auto nodes = im.nodeBreakdown();
            const std::string prefix = "nodes." + s.name +
                (fused ? ".fused." : ".unfused.");
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                out.push_back({prefix + std::to_string(i) + "." +
                                   nodes[i].node_id,
                               nodes[i].seconds});
            }
        }
    }
    return out;
}

Values
fleetValues()
{
    fleet::UtilizationStudyConfig config;
    config.num_runs = 50;
    Values out;
    for (const auto& [resource, samples] : fleet::utilizationStudy(config))
        out.push_back({"fleet50." + resource + ".mean", samples.mean()});
    return out;
}

/** The recorded values whose key starts with @p prefix. */
std::map<std::string, double>
recorded(const std::string& prefix)
{
    std::ifstream in(RECSIM_GOLDEN_FILE);
    EXPECT_TRUE(in.good()) << "cannot read " << RECSIM_GOLDEN_FILE;
    std::map<std::string, double> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, value;
        fields >> key >> value;
        if (key.compare(0, prefix.size(), prefix) == 0)
            out[key] = std::strtod(value.c_str(), nullptr);
    }
    return out;
}

bool
closeEnough(double expected, double actual)
{
    if (expected == actual)
        return true;
    return std::fabs(expected - actual) <=
        1e-12 * std::max(std::fabs(expected), std::fabs(actual));
}

/** @p value as the record writes it. */
std::string
g17(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** Every value matches its record, and every record is produced. */
void
expectMatchesRecord(const std::string& prefix, const Values& actual)
{
    std::map<std::string, double> expected = recorded(prefix);
    for (const auto& [key, value] : actual) {
        const auto it = expected.find(key);
        if (it == expected.end()) {
            ADD_FAILURE() << "unrecorded value: " << key << " "
                          << g17(value);
            continue;
        }
        EXPECT_TRUE(closeEnough(it->second, value))
            << "changed value: " << key << " " << g17(value)
            << " (recorded " << g17(it->second) << ")";
        expected.erase(it);
    }
    for (const auto& [key, value] : expected)
        ADD_FAILURE() << "recorded but no longer produced: " << key;
}

TEST(Golden, ExplorerPointsMatchRecord)
{
    const Values values = explorerValues();
    expectMatchesRecord("fig1", values);
}

TEST(Golden, NodeBreakdownsMatchRecord)
{
    const Values values = breakdownValues();
    expectMatchesRecord("nodes.", values);
}

TEST(Golden, FleetStudyMeansMatchRecord)
{
    const Values values = fleetValues();
    EXPECT_EQ(values.size(), 8u);
    expectMatchesRecord("fleet50.", values);
}

} // namespace
} // namespace recsim
