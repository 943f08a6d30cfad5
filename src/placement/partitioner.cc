#include "placement/partitioner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace recsim {
namespace placement {

std::size_t
Partition::shardsUsed() const
{
    std::size_t used = 0;
    for (double b : shard_bytes)
        used += b > 0.0;
    return used;
}

namespace {

double
imbalanceOf(const std::vector<double>& loads)
{
    double total = 0.0, peak = 0.0;
    std::size_t nonempty = 0;
    for (double l : loads) {
        if (l <= 0.0)
            continue;
        ++nonempty;
        total += l;
        peak = std::max(peak, l);
    }
    if (nonempty == 0 || total <= 0.0)
        return 1.0;
    const double mean = total / static_cast<double>(nonempty);
    return peak / mean;
}

} // namespace

double
Partition::accessImbalance() const
{
    return imbalanceOf(shard_access_bytes);
}

double
Partition::bytesImbalance() const
{
    return imbalanceOf(shard_bytes);
}

TableCosts::TableCosts(const std::vector<data::SparseFeatureSpec>& specs,
                       std::size_t emb_dim, double optimizer_state_factor)
{
    RECSIM_ASSERT(optimizer_state_factor >= 1.0,
                  "optimizer state cannot shrink a table");
    bytes.reserve(specs.size());
    access_bytes.reserve(specs.size());
    for (const auto& s : specs) {
        const auto dim = static_cast<double>(s.effectiveDim(emb_dim));
        bytes.push_back(static_cast<double>(s.hash_size) * dim *
                        sizeof(float) * optimizer_state_factor);
        access_bytes.push_back(s.effectiveMeanLength() * dim *
                               sizeof(float));
    }
}

ChunkedCosts
rowWiseSplitOversized(const TableCosts& costs, double shard_capacity)
{
    ChunkedCosts out;
    out.costs.bytes.clear();
    out.costs.access_bytes.clear();
    for (std::size_t t = 0; t < costs.bytes.size(); ++t) {
        std::size_t chunks = 1;
        if (shard_capacity > 0.0 && costs.bytes[t] > shard_capacity) {
            chunks = static_cast<std::size_t>(
                std::ceil(costs.bytes[t] / shard_capacity));
        }
        for (std::size_t c = 0; c < chunks; ++c) {
            out.costs.bytes.push_back(
                costs.bytes[t] / static_cast<double>(chunks));
            out.costs.access_bytes.push_back(
                costs.access_bytes[t] / static_cast<double>(chunks));
            out.chunk_of.push_back(t);
        }
    }
    return out;
}

Partition
greedyPartition(const TableCosts& costs, std::size_t num_shards,
                double shard_capacity, BalanceObjective objective)
{
    RECSIM_ASSERT(num_shards > 0, "partition into zero shards");
    const std::size_t n = costs.bytes.size();
    Partition part;
    part.shard_of.assign(n, -1);
    part.shard_bytes.assign(num_shards, 0.0);
    part.shard_access_bytes.assign(num_shards, 0.0);

    const auto& weight = objective == BalanceObjective::Bytes
        ? costs.bytes : costs.access_bytes;

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return weight[a] > weight[b];
                     });

    // The reason names the last table that found no shard; it is
    // formatted once, after the loop.
    std::size_t unplaced = n;
    double placed_before_unplaced = 0.0;
    for (std::size_t t : order) {
        // Lightest shard (by objective) with remaining byte capacity.
        int best = -1;
        double best_load = 0.0;
        for (std::size_t s = 0; s < num_shards; ++s) {
            if (shard_capacity > 0.0 &&
                part.shard_bytes[s] + costs.bytes[t] > shard_capacity) {
                continue;
            }
            const double load = objective == BalanceObjective::Bytes
                ? part.shard_bytes[s] : part.shard_access_bytes[s];
            if (best < 0 || load < best_load) {
                best = static_cast<int>(s);
                best_load = load;
            }
        }
        if (best < 0) {
            part.feasible = false;
            unplaced = t;
            placed_before_unplaced = 0.0;
            for (double b : part.shard_bytes)
                placed_before_unplaced += b;
            continue;
        }
        part.shard_of[t] = best;
        part.shard_bytes[best] += costs.bytes[t];
        part.shard_access_bytes[best] += costs.access_bytes[t];
    }
    if (unplaced < n) {
        part.infeasible_reason = util::format(
            "no shard has room for a {}-byte table: {} shards of "
            "{} bytes hold {} already", costs.bytes[unplaced], num_shards,
            shard_capacity, placed_before_unplaced);
    }
    return part;
}

Partition
sequentialPartition(const TableCosts& costs, std::size_t num_shards,
                    double shard_capacity)
{
    RECSIM_ASSERT(num_shards > 0, "partition into zero shards");
    const std::size_t n = costs.bytes.size();
    Partition part;
    part.shard_of.assign(n, -1);
    part.shard_bytes.assign(num_shards, 0.0);
    part.shard_access_bytes.assign(num_shards, 0.0);

    std::size_t cur = 0;
    for (std::size_t t = 0; t < n; ++t) {
        while (cur < num_shards && shard_capacity > 0.0 &&
               part.shard_bytes[cur] + costs.bytes[t] > shard_capacity) {
            ++cur;
        }
        if (cur >= num_shards) {
            part.feasible = false;
            part.infeasible_reason = "tables exceed total shard capacity";
            break;
        }
        part.shard_of[t] = static_cast<int>(cur);
        part.shard_bytes[cur] += costs.bytes[t];
        part.shard_access_bytes[cur] += costs.access_bytes[t];
    }
    return part;
}

Partition
rowWisePartition(double table_bytes, double access_bytes,
                 std::size_t num_shards, double shard_capacity)
{
    RECSIM_ASSERT(num_shards > 0, "partition into zero shards");
    Partition part;
    part.shard_of.assign(1, 0);
    const double per_shard = table_bytes /
        static_cast<double>(num_shards);
    part.shard_bytes.assign(num_shards, per_shard);
    part.shard_access_bytes.assign(
        num_shards, access_bytes / static_cast<double>(num_shards));
    if (shard_capacity > 0.0 && per_shard > shard_capacity) {
        part.feasible = false;
        part.infeasible_reason = util::format(
            "row-wise slice of {} bytes exceeds shard capacity {}",
            per_shard, shard_capacity);
    }
    return part;
}

} // namespace placement
} // namespace recsim
