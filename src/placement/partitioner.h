/**
 * @file
 * Embedding-table partitioners: how a set of tables is split across a
 * set of shards (GPUs or sparse parameter servers). The paper notes
 * that differences in access ratios "might create imbalances among
 * servers if not carefully partitioned" — the partitioners here expose
 * that imbalance as a first-class metric.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/spec.h"

namespace recsim {
namespace placement {

/** What the greedy partitioner balances. */
enum class BalanceObjective
{
    Bytes,       ///< Balance resident bytes per shard (capacity-driven).
    AccessBytes  ///< Balance lookup traffic per shard (bandwidth-driven).
};

/** Result of partitioning tables across shards. */
struct Partition
{
    /** shard_of[i] = shard index of table i. */
    std::vector<int> shard_of;
    /** Resident bytes per shard (including optimizer state overhead). */
    std::vector<double> shard_bytes;
    /** Per-example lookup bytes served by each shard. */
    std::vector<double> shard_access_bytes;
    bool feasible = true;
    std::string infeasible_reason;

    std::size_t numShards() const { return shard_bytes.size(); }

    /** Number of shards actually holding at least one table. */
    std::size_t shardsUsed() const;

    /** max / mean access bytes across non-empty shards (1 = perfect). */
    double accessImbalance() const;

    /** max / mean resident bytes across non-empty shards. */
    double bytesImbalance() const;
};

/**
 * Per-table byte and traffic accounting used by the partitioners, in
 * table order. The expressions are those of the StepGraph's
 * EmbeddingLookup annotations (graph::buildModelStepGraph): bytes[t] is
 * node param_bytes times the factor and access_bytes[t] is node
 * bytes_per_example, bit for bit, so planPlacement() prices tables
 * from the specs without lowering a graph.
 * @param optimizer_state_factor Multiplier on raw table bytes for
 *        optimizer state (row-wise Adagrad adds one float per row,
 *        i.e. factor 1 + 1/d).
 */
struct TableCosts
{
    std::vector<double> bytes;         ///< Resident bytes per table.
    std::vector<double> access_bytes;  ///< Lookup bytes/example per table.

    TableCosts(const std::vector<data::SparseFeatureSpec>& specs,
               std::size_t emb_dim, double optimizer_state_factor = 1.0);
};

/**
 * Split any table whose bytes exceed @p shard_capacity into row-wise
 * chunks that fit (the standard fallback for monster tables — the
 * paper's Sec IV-B "row-wise partitioning"). Returns per-chunk costs
 * and records which original table each chunk came from.
 */
struct ChunkedCosts
{
    TableCosts costs{std::vector<data::SparseFeatureSpec>{}, 1};
    /** chunk_of[i] = index of the source table of chunk i. */
    std::vector<std::size_t> chunk_of;
};

ChunkedCosts rowWiseSplitOversized(const TableCosts& costs,
                                   double shard_capacity);

/**
 * Greedy largest-first bin packing: tables sorted by the objective
 * weight descending, each assigned to the currently lightest shard that
 * still has capacity. Classic LPT, within 4/3 of optimal balance.
 *
 * @param costs          Per-table accounting.
 * @param num_shards     Number of bins.
 * @param shard_capacity Byte capacity per shard (0 = unlimited).
 * @param objective      What to balance.
 */
Partition greedyPartition(const TableCosts& costs, std::size_t num_shards,
                          double shard_capacity,
                          BalanceObjective objective);

/**
 * Pack shards one by one ("fill first shard, then the next"), the
 * naive strategy that minimizes shards used but maximizes imbalance.
 * Used as the ablation baseline for the partitioning benches.
 */
Partition sequentialPartition(const TableCosts& costs,
                              std::size_t num_shards,
                              double shard_capacity);

/**
 * Row-wise partition of a single large table across @p num_shards:
 * every shard holds hash_size / num_shards rows and serves an equal
 * slice of the lookups. Returns per-shard bytes and access bytes for
 * one table of @p table_bytes and @p access_bytes.
 */
Partition rowWisePartition(double table_bytes, double access_bytes,
                           std::size_t num_shards, double shard_capacity);

} // namespace placement
} // namespace recsim
