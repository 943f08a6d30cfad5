#include "cost/iteration_model.h"

#include <algorithm>
#include <cmath>

#include "cost/cache_model.h"
#include "util/random.h"
#include "util/logging.h"

namespace recsim {
namespace cost {

namespace {

/** Seconds per example a resource needs, given demand and rate. */
double
perExample(double units_per_example, double units_per_second)
{
    return units_per_second > 0.0
        ? units_per_example / units_per_second : 0.0;
}

/**
 * The resource a bound node holds: a Comm node's link or server by its
 * op, any other node its device's compute (or, for a lookup, memory).
 * A lookup hosted on a sparse PS holds the trainer CPU for its
 * trainer-side half (id marshalling, pooled-vector handling); the
 * comm.ps_* legs serve its rows.
 */
Resource
resourceOf(const graph::Node& node)
{
    using graph::CommOp;
    switch (node.comm) {
      case CommOp::PsRequest:
        return Resource::TrainerNic;
      case CommOp::PsGather:
        return Resource::PsMem;
      case CommOp::PsPool:
        return Resource::PsCpu;
      case CommOp::PsResponse:
        return Resource::PsNic;
      case CommOp::GradPush:
        return Resource::TrainerPush;
      case CommOp::DenseSync:
        return Resource::DensePsNic;
      case CommOp::AllToAll:
      case CommOp::AllReduce:
        return Resource::Interconnect;
      case CommOp::HostGather:
        return Resource::HostMem;
      case CommOp::PcieStage:
        return Resource::Pcie;
      case CommOp::Deserialize:
      case CommOp::Input:
        return Resource::HostCpu;
      case CommOp::None:
        break;
    }
    const bool lookup = node.kind == graph::NodeKind::EmbeddingLookup;
    switch (node.device) {
      case graph::Device::TrainerCpu:
      case graph::Device::SparsePs:
        return Resource::TrainerCpu;
      case graph::Device::Gpu:
        return lookup ? Resource::GpuMem : Resource::GpuCompute;
      case graph::Device::HostCpu:
        return lookup ? Resource::HostMem : Resource::HostCpu;
      default:
        return Resource::None;
    }
}

} // namespace

std::vector<std::pair<std::string, double>>
Utilizations::asList() const
{
    return {
        {"trainer_cpu", trainer_cpu},
        {"trainer_mem_bw", trainer_mem_bw},
        {"trainer_mem_capacity", trainer_mem_capacity},
        {"trainer_network", trainer_network},
        {"gpu_compute", gpu_compute},
        {"gpu_mem_bw", gpu_mem_bw},
        {"gpu_interconnect", gpu_interconnect},
        {"host_mem_bw", host_mem_bw},
        {"pcie", pcie},
        {"sparse_ps_cpu", sparse_ps_cpu},
        {"sparse_ps_mem_bw", sparse_ps_mem_bw},
        {"sparse_ps_mem_capacity", sparse_ps_mem_capacity},
        {"sparse_ps_network", sparse_ps_network},
        {"dense_ps_network", dense_ps_network},
        {"reader_network", reader_network},
    };
}

IterationModel::IterationModel(model::DlrmConfig model_config,
                               SystemConfig system_config,
                               CostParams params)
    : model_(std::move(model_config)), system_(std::move(system_config)),
      params_(params)
{
    system_.placement_options.num_sparse_ps =
        std::max<std::size_t>(system_.num_sparse_ps, 1);
    system_.placement_options.emb_bytes_per_element =
        system_.emb_bytes_per_element;
    system_.placement_options.hot_tier_bytes =
        system_.emb_hot_tier_bytes;
    if (system_.platform.num_gpus > 0) {
        system_.placement_options.num_nodes =
            std::max<std::size_t>(system_.num_trainers, 1);
    }
    plan_ = placement::planPlacement(system_.placement, model_,
                                     system_.platform,
                                     system_.placement_options);
    if (!plan_.feasible) {
        estimate_.feasible = false;
        estimate_.infeasible_reason = plan_.infeasible_reason.empty()
            ? "embedding placement infeasible"
            : plan_.infeasible_reason;
        estimate_.power_watts = system_.totalPowerWatts();
        return;
    }
    graph_ = graph::buildModelStepGraph(model_);
    placement::bindStepGraph(graph_, plan_, system_.num_sparse_ps);
    if (params_.fuse_step_graph)
        graph::fusePass(graph_);
    summary_ = graph::summarize(graph_);
    rates_ = deriveRates();

    const bool gpu = system_.platform.num_gpus > 0;
    estimate_ = gpu ? estimateGpu() : estimateCpu();
    prices_ = gpu ? priceGpu(estimate_.breakdown) : priceCpu();

    // Critical-path fold over the graph edges: the lower bound of any
    // fold of the prices that keeps the edges, with each node at its
    // price. This rides alongside the calibrated max/sum estimate
    // above — it neither changes nor bounds iteration_seconds — and
    // overlap_efficiency = critical/sum is how much of the serial work
    // the edges can hide (PS-sharded placements hide most sparse comm,
    // Sec. V).
    std::vector<double> seconds;
    seconds.reserve(prices_.size());
    double sum = 0.0;
    for (const NodePrice& price : prices_) {
        seconds.push_back(price.seconds);
        sum += price.seconds;
    }
    estimate_.serial_sum_seconds = sum;
    estimate_.critical_path_seconds = graph_.criticalPath(seconds);
    estimate_.overlap_efficiency = sum > 0.0
        ? estimate_.critical_path_seconds / sum : 1.0;
}

IterationModel::Rates
IterationModel::deriveRates() const
{
    Rates r;
    const hw::Platform& p = system_.platform;
    const hw::Platform ps = hw::Platform::dualSocketCpu();

    // Cache pressure: the activation working set past the LLC derates
    // GEMMs (the Fig 11 CPU batch-size roll-off). Only about half the
    // LLC is available to the GEMM working set (the rest serves the
    // input pipeline and lookup staging).
    const double llc = 0.5 * kCpuLlcBytesPerSocket * p.num_cpu_sockets;
    const double ws = static_cast<double>(system_.batch_size) *
        summary_.activation_bytes;
    const double cache_factor = ws > llc
        ? std::pow(llc / ws, params_.cpu_cache_pressure_exponent) : 1.0;
    r.host_flops =
        p.host.peak_flops * params_.cpu_mlp_efficiency * cache_factor;
    r.nic = p.network.bandwidth * params_.network_goodput;

    // Sparse-PS shard rates. The gather is hot-tier aware: the
    // placement's traffic-weighted hit fraction routes that share of
    // bytes to the managed hot tier (DRAM-speed unless the device
    // declares a faster one); identical to the single-tier rate when
    // no hot budget is configured.
    const double n_ps = static_cast<double>(
        std::max<std::size_t>(system_.num_sparse_ps, 1));
    r.ps_gather = tieredGatherBandwidth(
        ps.host.mem_bandwidth, ps.host.hotTierBandwidth(),
        plan_.hot_hit_fraction, plan_.resident_bytes / n_ps,
        kCpuLlcBytesPerSocket * ps.num_cpu_sockets,
        ps.host.random_access_efficiency,
        params_.cached_gather_efficiency);
    r.ps_pool = ps.host.peak_flops * params_.cpu_mlp_efficiency *
        params_.ps_pooling_flops_fraction;
    r.ps_nic = ps.network.bandwidth * params_.network_goodput;
    r.dense_ps = static_cast<double>(system_.num_dense_ps) * r.ps_nic;

    // EASGD syncs the dense parameters once per period; synchronous
    // training every iteration.
    const double sync_period = system_.sync_mode == SyncMode::Easgd
        ? static_cast<double>(std::max<std::size_t>(
              system_.easgd_sync_period, 1))
        : 1.0;
    r.dense_sync_bytes =
        2.0 * summary_.dense_param_count * sizeof(float) / sync_period;

    if (system_.remote_cache_bytes > 0.0) {
        const double row_bytes = static_cast<double>(summary_.emb_dim) *
            system_.emb_bytes_per_element;
        const double cache_rows = system_.remote_cache_bytes / row_bytes;
        const double total_access = std::max(
            summary_.embedding_lookups, 1e-9);
        // Fold over the model's sparse specs rather than the graph's
        // lookup nodes: fusePass merges per-table nodes into grouped
        // ones (losing per-table rows/zipf), and the cache splits by
        // *table* either way. Specs and unfused emb nodes are in the
        // same order with identical annotations, so this is the same
        // arithmetic.
        double hit = 0.0;
        for (const auto& spec : model_.sparse) {
            const double share = spec.effectiveMeanLength() / total_access;
            const auto rows = static_cast<uint64_t>(cache_rows * share);
            hit += share * util::zipfTopMass(spec.hash_size,
                                             spec.zipf_exponent, rows);
        }
        r.remote_hit = std::min(hit, 1.0);
    }
    return r;
}

double
IterationModel::sparsePsCapacity() const
{
    if (system_.num_sparse_ps == 0)
        return 0.0;
    const double n = static_cast<double>(system_.num_sparse_ps);
    // Trainer-side cache hits never reach the PS: only the cold share
    // of forward pulls plus the (write-through) gradient pushes remain.
    const double emb_train_bytes = summary_.embedding_bytes *
        ((1.0 - rates_.remote_hit) +
         (params_.emb_train_bytes_multiplier - 1.0));
    // Pooling + gradient scatter arithmetic on the PS cores.
    const double pool_flops = summary_.embedding_lookups *
        static_cast<double>(summary_.emb_dim) * 2.0 * 2.0;
    // NIC: pooled vectors out + gradients in + index requests.
    const double nic_bytes = 2.0 * summary_.pooled_bytes +
        summary_.embedding_lookups * params_.request_bytes_per_lookup;

    const double s_per_example = std::max({
        perExample(emb_train_bytes, rates_.ps_gather),
        perExample(pool_flops, rates_.ps_pool),
        perExample(nic_bytes, rates_.ps_nic)});
    if (s_per_example <= 0.0)
        return 0.0;
    const double imbalance = std::max(plan_.access_imbalance, 1.0);
    return n / (s_per_example * imbalance);
}

IterationEstimate
IterationModel::estimateCpu() const
{
    IterationEstimate est;
    const hw::Platform& p = system_.platform;
    const double b = static_cast<double>(system_.batch_size);
    const double n_tr = static_cast<double>(system_.num_trainers);

    const double fwd_flops =
        summary_.mlp_flops + summary_.interaction_flops;
    const double train_flops =
        fwd_flops * (1.0 + params_.backward_flops_multiplier);
    const double dense_params = summary_.dense_param_count;
    const double act_bytes_pe = summary_.activation_bytes;
    const double host_flops = rates_.host_flops;

    // Unfused GEMM epilogues (bias + ReLU passes over the activations
    // forward; dReLU mask, bias-grad sumRows and the interaction
    // flatten/scatter buffers backward) are extra streaming memory
    // traffic; fusePass zeroes both summary terms, which is the
    // analytical fusion win.
    const double epilogue_s_pe =
        (summary_.epilogue_traffic_bytes +
         summary_.bwd_epilogue_traffic_bytes) / p.host.mem_bandwidth;
    const double compute_s_pe = train_flops / host_flops +
        epilogue_s_pe + params_.cpu_per_example_overhead +
        summary_.embedding_lookups * params_.cpu_per_lookup_overhead;
    // Per-iteration op dispatch, once per EmbeddingLookup *node* —
    // grouped nodes pay it once per group.
    const double dispatch_s =
        static_cast<double>(summary_.embedding_tables) *
        params_.cpu_per_table_dispatch;
    const double t_compute = b * compute_s_pe + dispatch_s +
        params_.cpu_iteration_overhead;

    // Trainer <-> sparse PS traffic: pooled vectors both ways plus
    // index requests; EASGD dense sync amortized over the period.
    const double net_bytes_pe = 2.0 * summary_.pooled_bytes +
        summary_.embedding_lookups * params_.request_bytes_per_lookup;
    const double dense_sync_bytes = rates_.dense_sync_bytes;
    const double nic_rate = rates_.nic;
    const double t_net = (b * net_bytes_pe + dense_sync_bytes) / nic_rate +
        4.0 * p.network.latency;

    // Compute and communication pipeline across hogwild workers and
    // async prefetch, so the iteration critical path is the max.
    const double t_iter = std::max(t_compute, t_net);
    const double trainer_rate = b / t_iter;
    const double trainer_agg = n_tr * trainer_rate;

    est.breakdown = {
        {"mlp_compute",
         b * (train_flops / host_flops + epilogue_s_pe)},
        {"lookup_overhead",
         b * summary_.embedding_lookups *
             params_.cpu_per_lookup_overhead + dispatch_s},
        {"framework_overhead",
         b * params_.cpu_per_example_overhead +
             params_.cpu_iteration_overhead},
        {"trainer_network", t_net},
    };

    // Service caps.
    double throughput = trainer_agg;
    est.bottleneck = "trainer_compute";
    if (t_net >= t_compute)
        est.bottleneck = "trainer_network";

    const double ps_cap = sparsePsCapacity();
    if (ps_cap > 0.0 && ps_cap < throughput) {
        throughput = ps_cap;
        est.bottleneck = "sparse_ps";
    }

    double dense_cap = 0.0;
    if (system_.num_dense_ps > 0) {
        const double bytes_pe = dense_sync_bytes / b;
        dense_cap = rates_.dense_ps / std::max(bytes_pe, 1e-12);
        if (dense_cap < throughput) {
            throughput = dense_cap;
            est.bottleneck = "dense_ps";
        }
    }

    double reader_cap = 0.0;
    const double read_bytes_pe = summary_.dense_input_bytes +
        summary_.embedding_lookups * 8.0 + 4.0;
    if (system_.num_readers > 0) {
        reader_cap = static_cast<double>(system_.num_readers) *
            nic_rate / read_bytes_pe;
        if (reader_cap < throughput) {
            throughput = reader_cap;
            est.bottleneck = "reader";
        }
    }

    est.iteration_seconds = t_iter;
    est.examples_per_iteration = b * n_tr;
    est.throughput = throughput;

    // Utilizations at the achieved throughput.
    const double x_tr = throughput / n_tr;  // examples/s per trainer
    est.util.trainer_cpu = std::min(1.0, x_tr * compute_s_pe +
        (params_.cpu_iteration_overhead + dispatch_s) * x_tr / b);
    // Trainer memory traffic: activations (fwd + bwd re-reads), weight
    // streams amortized over the batch, and the moderate arithmetic
    // intensity of DLRM GEMMs (~0.12 B/FLOP of DRAM traffic).
    const double mlp_mem_bytes_pe = act_bytes_pe * 3.0 +
        dense_params * sizeof(float) * 3.0 / b +
        train_flops * 0.12;
    est.util.trainer_mem_bw = std::min(
        1.0, x_tr * mlp_mem_bytes_pe / p.host.mem_bandwidth);
    est.util.trainer_mem_capacity = std::min(
        1.0, (2.0 * dense_params * sizeof(float) +
              b * act_bytes_pe * system_.hogwild_threads) /
            p.host.mem_capacity);
    est.util.trainer_network = std::min(
        1.0, x_tr * (net_bytes_pe + dense_sync_bytes / b) / nic_rate);
    if (ps_cap > 0.0) {
        const double n_ps = static_cast<double>(system_.num_sparse_ps);
        est.util.sparse_ps_cpu = std::min(1.0, throughput / ps_cap *
            0.8);
        est.util.sparse_ps_mem_bw = std::min(1.0, throughput / ps_cap);
        est.util.sparse_ps_mem_capacity = std::min(
            1.0, plan_.resident_bytes /
                (n_ps * hw::Platform::dualSocketCpu().host.mem_capacity));
        est.util.sparse_ps_network = std::min(
            1.0, throughput * net_bytes_pe /
                (n_ps * nic_rate));
    }
    if (dense_cap > 0.0)
        est.util.dense_ps_network = std::min(1.0,
                                             throughput / dense_cap);
    if (reader_cap > 0.0)
        est.util.reader_network = std::min(1.0,
                                           throughput / reader_cap);

    est.power_watts = system_.totalPowerWatts();
    return est;
}

IterationEstimate
IterationModel::estimateGpu() const
{
    IterationEstimate est;
    const hw::Platform& p = system_.platform;
    const double g = static_cast<double>(p.num_gpus);
    const double n_nodes = static_cast<double>(
        std::max<std::size_t>(system_.num_trainers, 1));
    const double bg =
        static_cast<double>(system_.batch_size) * g;  // per-node batch
    const double bg_global = bg * n_nodes;
    const double nic_rate = rates_.nic;

    const double fwd_flops =
        summary_.mlp_flops + summary_.interaction_flops;
    const double train_flops =
        fwd_flops * (1.0 + params_.backward_flops_multiplier);
    const double dense_params = summary_.dense_param_count;
    const double d = static_cast<double>(summary_.emb_dim);
    // Serving precision scales every byte the tables move or occupy
    // (quantization extension).
    const double compression = system_.emb_bytes_per_element / 4.0;
    const double emb_train_bytes = summary_.embedding_bytes *
        compression * params_.emb_train_bytes_multiplier;

    // ---- MLP compute + kernel dispatch ------------------------------
    const double gpu_flops =
        g * p.gpu.peak_flops * params_.gpu_mlp_efficiency;
    const double t_mlp = bg * train_flops / gpu_flops;
    const double n_layers = static_cast<double>(summary_.mlp_layers);
    // Embedding ops cannot batch across tables: every table costs
    // lookup + gradient + optimizer kernels, doubled when the tables
    // are sharded (routing indices to owners and results back).
    const bool sharded = !plan_.replicated && plan_.gpus_used > 1;
    const double emb_kernels = 3.0 *
        static_cast<double>(summary_.embedding_tables) *
        (sharded ? 2.0 : 1.0) * plan_.gpu_lookup_fraction;
    const double kernels = n_layers * params_.gpu_kernels_per_layer +
        params_.gpu_fixed_kernels + emb_kernels +
        (sharded ? 2.0 * g : 0.0);
    const double t_launch = kernels * p.gpu.kernel_launch_overhead +
        params_.gpu_iteration_overhead;

    // ---- Embedding path ---------------------------------------------
    const double frac_gpu = plan_.gpu_lookup_fraction;
    const double frac_remote = plan_.remote_lookup_fraction;
    const double frac_host =
        std::max(0.0, 1.0 - frac_gpu - frac_remote);

    double t_gather_gpu = 0.0, t_a2a = 0.0;
    if (frac_gpu > 0.0 && plan_.replicated) {
        // Replicated tables: every GPU gathers only its local batch
        // from its own (small, cache-friendly) copy; the only
        // communication is an allreduce-style sync of the touched rows.
        const double rate = tieredGatherBandwidth(
            p.gpu.mem_bandwidth, p.gpu.hotTierBandwidth(),
            plan_.hot_hit_fraction, plan_.resident_bytes, kGpuL2Bytes,
            p.gpu.random_access_efficiency,
            params_.cached_gather_efficiency);
        t_gather_gpu = bg * emb_train_bytes * frac_gpu / (g * rate);
        const double touched_bytes = std::min(
            plan_.resident_bytes,
            bg * summary_.embedding_lookups * d * sizeof(float));
        t_a2a = 2.0 * touched_bytes * (g - 1.0) / g /
            (g * std::max(p.gpu_interconnect.bandwidth, 1.0)) +
            2.0 * p.gpu_interconnect.latency;
    } else if (frac_gpu > 0.0) {
        const double shards = static_cast<double>(
            std::max<std::size_t>(plan_.gpus_used, 1));
        double max_shard = 0.0;
        for (std::size_t s = 0;
             s < plan_.partition.numShards(); ++s) {
            max_shard = std::max(max_shard,
                                 plan_.partition.shard_bytes[s]);
        }
        const double rate = tieredGatherBandwidth(
            p.gpu.mem_bandwidth, p.gpu.hotTierBandwidth(),
            plan_.hot_hit_fraction, max_shard, kGpuL2Bytes,
            p.gpu.random_access_efficiency,
            params_.cached_gather_efficiency);
        const double imbalance = std::max(plan_.access_imbalance, 1.0);
        // Owner shards serve the *global* batch.
        t_gather_gpu = bg_global * emb_train_bytes * frac_gpu *
            imbalance / (shards * rate);
        // Pooled embeddings all-to-all: senders are the table-owning
        // GPUs, consumers are all data-parallel GPUs. Raw indices must
        // also be routed to the owners.
        const double index_bytes = bg_global * summary_.embedding_lookups *
            frac_gpu * 8.0 * (g - 1.0) / g;
        t_a2a = (2.0 * bg_global * summary_.pooled_bytes * frac_gpu *
                     (g - 1.0) / g + index_bytes) /
            (shards * std::max(p.gpu_interconnect.bandwidth, 1.0)) +
            2.0 * p.gpu_interconnect.latency;
        // Tables spanning multiple nodes: the cross-node share of the
        // pooled exchange crosses the NICs — the "multiple Big Basins
        // need fast inter-node GPU-GPU communication" case the paper
        // could not test.
        if (n_nodes > 1.0 &&
            plan_.gpus_used > static_cast<std::size_t>(g)) {
            t_a2a += 2.0 * bg_global * summary_.pooled_bytes * frac_gpu *
                (n_nodes - 1.0) / n_nodes / (n_nodes * nic_rate) +
                2.0 * p.network.latency;
        }
    }

    double t_host = 0.0, t_pcie = 0.0;
    if (frac_host > 0.0) {
        const double host_resident = plan_.resident_bytes *
            (plan_.placement == placement::EmbeddingPlacement::Hybrid
                 ? frac_host : 1.0);
        const double rate = tieredGatherBandwidth(
            p.host.mem_bandwidth, p.host.hotTierBandwidth(),
            plan_.hot_hit_fraction, host_resident,
            kCpuLlcBytesPerSocket * p.num_cpu_sockets,
            p.host.random_access_efficiency,
            params_.cached_gather_efficiency);
        const double t_bw = bg_global * emb_train_bytes * frac_host /
            (n_nodes * rate);
        const double pool_flops = bg_global * summary_.embedding_lookups *
            frac_host * d * 2.0 * 2.0;
        const double t_pool = pool_flops /
            (n_nodes * p.host.peak_flops * params_.cpu_mlp_efficiency *
             params_.ps_pooling_flops_fraction);
        t_host = std::max(t_bw, t_pool);
        t_pcie = 2.0 * bg * summary_.pooled_bytes * frac_host /
            (g * p.host_gpu.bandwidth);
        // Host shards spanning nodes exchange pooled vectors over NICs.
        if (n_nodes > 1.0 && plan_.partition.shardsUsed() > 1) {
            t_host += 2.0 * bg_global * summary_.pooled_bytes * frac_host *
                (n_nodes - 1.0) / n_nodes / (n_nodes * nic_rate) +
                2.0 * p.network.latency;
        }
    }

    // Remote sparse lookups: the paper's M3 path. Three costs compound:
    // NIC bytes, RPC serialization on the GPU server's host CPUs (its
    // observed bottleneck), and request latency limited by the number of
    // in-flight RPCs. Hogwild workers (>= 2) pipeline batches, so the
    // bandwidth terms overlap each other and the latency term divides
    // by the worker count.
    const double hogwild = static_cast<double>(
        std::max<std::size_t>(system_.hogwild_threads, 1));
    double t_remote = 0.0;
    if (frac_remote > 0.0) {
        // A trainer-side hot-row cache absorbs the Zipf-hot share of
        // pulls (caching extension); gradient pushes still go through.
        const double hit = rates_.remote_hit;
        const double bytes_rt = bg * frac_remote *
            (summary_.pooled_bytes * compression * (1.0 - hit) +
             summary_.pooled_bytes +
             summary_.embedding_lookups * params_.request_bytes_per_lookup *
                 (1.0 - hit));
        const double t_net = bytes_rt / nic_rate + 2.0 * p.network.latency;
        const double t_serial = bytes_rt /
            (params_.serialization_bw_per_socket *
             static_cast<double>(p.num_cpu_sockets));
        const double rtt = 2.0 * p.network.latency +
            params_.ps_service_time;
        const double requests = bg * frac_remote * (1.0 - hit) *
            static_cast<double>(summary_.embedding_tables);
        const double t_latency = requests * rtt /
            (params_.remote_inflight_rpcs * hogwild);
        t_remote = hogwild >= 2.0
            ? std::max(t_net, t_serial) + t_latency
            : t_net + t_serial + t_latency;
    }

    // ---- Dense gradient allreduce across GPUs -----------------------
    // Over NVLink when present; otherwise staged through host memory at
    // PCIe rates. Either way the reduction pipelines with the backward
    // pass, so only half of it lands on the critical path.
    const double allreduce_bw = p.has_nvlink
        ? p.gpu_interconnect.bandwidth
        : p.host_gpu.bandwidth / 2.0;
    double t_allreduce =
        (2.0 * dense_params * sizeof(float) * (g - 1.0) / g /
             std::max(allreduce_bw, 1.0) +
         2.0 * p.gpu_interconnect.latency) * 0.5;
    if (n_nodes > 1.0) {
        // Ring allreduce across nodes over the NICs, pipelined with
        // the backward pass like the intra-node stage.
        t_allreduce += (2.0 * dense_params * sizeof(float) *
                            (n_nodes - 1.0) / n_nodes / nic_rate +
                        2.0 * p.network.latency) * 0.5;
    }

    // ---- Input pipeline ---------------------------------------------
    const double read_bytes_pe = summary_.dense_input_bytes +
        summary_.embedding_lookups * 8.0 + 4.0;
    const double t_input = bg * read_bytes_pe /
        (g * p.host_gpu.bandwidth) +
        bg * (params_.host_cpu_per_example +
              summary_.embedding_lookups * params_.host_cpu_per_lookup) /
            static_cast<double>(p.num_cpu_sockets);

    const double t_local = t_mlp + t_launch + t_gather_gpu + t_a2a +
        t_host + t_pcie + t_allreduce + t_input;
    // Hogwild workers overlap the remote phase with local compute.
    const double t_iter = hogwild >= 2.0 && frac_remote > 0.0
        ? std::max(t_local, t_remote)
        : t_local + t_remote;

    est.breakdown = {
        {"mlp_compute", t_mlp},
        {"kernel_dispatch", t_launch},
        {"emb_gather_gpu", t_gather_gpu},
        {"emb_alltoall", t_a2a},
        {"emb_gather_host", t_host},
        {"emb_pcie", t_pcie},
        {"emb_remote", t_remote},
        {"dense_allreduce", t_allreduce},
        {"input_pipeline", t_input},
    };

    double throughput = bg_global / t_iter;
    // Name the largest phase as the trainer-side bottleneck.
    est.bottleneck = "mlp_compute";
    double worst = t_mlp;
    for (const auto& phase : est.breakdown) {
        if (phase.seconds > worst) {
            worst = phase.seconds;
            est.bottleneck = phase.name;
        }
    }

    double ps_cap = 0.0;
    if (frac_remote > 0.0) {
        ps_cap = sparsePsCapacity();
        if (ps_cap > 0.0 && ps_cap < throughput) {
            throughput = ps_cap;
            est.bottleneck = "sparse_ps";
        }
    }
    double reader_cap = 0.0;
    if (system_.num_readers > 0) {
        // Readers are dual-socket CPU servers, like the PS.
        reader_cap = static_cast<double>(system_.num_readers) *
            rates_.ps_nic / read_bytes_pe;
        // The GPU server itself must also ingest the stream.
        reader_cap = std::min(reader_cap, nic_rate / read_bytes_pe);
        if (reader_cap < throughput) {
            throughput = reader_cap;
            est.bottleneck = "reader";
        }
    }

    est.iteration_seconds = t_iter;
    est.examples_per_iteration = bg_global;
    est.throughput = throughput;

    const double x = throughput / n_nodes;  // examples/s per node
    est.util.gpu_compute = std::min(1.0, x * train_flops / gpu_flops);
    est.util.gpu_mem_bw = std::min(
        1.0, x * (emb_train_bytes * frac_gpu +
                  train_flops / 2.0 * sizeof(float) * 0.25) /
            (g * p.gpu.mem_bandwidth));
    if (p.gpu_interconnect.bandwidth > 0.0) {
        est.util.gpu_interconnect = std::min(
            1.0, x * (2.0 * summary_.pooled_bytes * frac_gpu * (g - 1.0) / g +
                      2.0 * dense_params * sizeof(float) * (g - 1.0) /
                          g / bg) /
                (g * p.gpu_interconnect.bandwidth));
    }
    est.util.host_mem_bw = std::min(
        1.0, x * emb_train_bytes * frac_host / p.host.mem_bandwidth);
    est.util.pcie = std::min(
        1.0, x * (2.0 * summary_.pooled_bytes * (frac_host + frac_remote) +
                  read_bytes_pe) / (g * p.host_gpu.bandwidth));
    est.util.trainer_cpu = std::min(
        1.0, x * (frac_remote + frac_host) *
            (2.0 * summary_.pooled_bytes /
             (params_.serialization_bw_per_socket *
              static_cast<double>(p.num_cpu_sockets))));
    est.util.trainer_network = std::min(
        1.0, x * frac_remote * 2.0 * summary_.pooled_bytes / nic_rate);
    est.util.trainer_mem_capacity = std::min(
        1.0, plan_.resident_bytes * frac_host /
            std::max(p.host.mem_capacity, 1.0));
    if (ps_cap > 0.0) {
        est.util.sparse_ps_mem_bw = std::min(1.0, throughput / ps_cap);
        est.util.sparse_ps_mem_capacity = std::min(
            1.0, plan_.resident_bytes /
                (static_cast<double>(
                     std::max<std::size_t>(system_.num_sparse_ps, 1)) *
                 hw::Platform::dualSocketCpu().host.mem_capacity));
    }
    if (reader_cap > 0.0)
        est.util.reader_network = std::min(1.0, throughput / reader_cap);

    est.power_watts = system_.totalPowerWatts();
    return est;
}

std::vector<NodeTime>
IterationModel::nodeBreakdown() const
{
    std::vector<NodeTime> out;
    out.reserve(prices_.size());
    for (std::size_t i = 0; i < prices_.size(); ++i)
        out.push_back({graph_.nodes[i].id, prices_[i].seconds});
    return out;
}

std::vector<NodePrice>
IterationModel::priceCpu() const
{
    const hw::Platform& p = system_.platform;
    const double b = static_cast<double>(system_.batch_size);
    const double bwd = 1.0 + params_.backward_flops_multiplier;
    const double d = static_cast<double>(summary_.emb_dim);

    std::vector<NodePrice> out;
    out.reserve(graph_.numNodes());
    for (const auto& node : graph_.nodes) {
        double s = 0.0;
        switch (node.kind) {
          case graph::NodeKind::Gemm:
          case graph::NodeKind::Interaction:
            s = b * node.fwd_flops * bwd / rates_.host_flops +
                b * (node.epilogue_traffic_bytes +
                     node.bwd_epilogue_traffic_bytes) /
                    p.host.mem_bandwidth;
            break;
          case graph::NodeKind::EmbeddingLookup:
            // Trainer-side id marshalling + pooled-vector handling (the
            // gather itself runs on the PS, comm.ps_gather.* nodes)
            // plus the per-node op-dispatch charge grouped nodes
            // amortize.
            s = b * node.lookups_per_example *
                    params_.cpu_per_lookup_overhead +
                params_.cpu_per_table_dispatch;
            break;
          case graph::NodeKind::OptimizerUpdate:
            s = b * params_.cpu_per_example_overhead +
                params_.cpu_iteration_overhead;
            break;
          case graph::NodeKind::Loss:
            break;
          case graph::NodeKind::Comm:
            switch (node.comm) {
              case graph::CommOp::PsRequest:
                s = b * node.share *
                    (summary_.pooled_bytes +
                     summary_.embedding_lookups *
                         params_.request_bytes_per_lookup) *
                    0.1 / rates_.nic;
                break;
              case graph::CommOp::PsGather:
                s = b * node.share * summary_.embedding_bytes *
                    params_.emb_train_bytes_multiplier / rates_.ps_gather;
                break;
              case graph::CommOp::PsPool:
                s = b * node.share * summary_.embedding_lookups * d *
                    4.0 / rates_.ps_pool;
                break;
              case graph::CommOp::PsResponse:
                s = b * node.share * summary_.pooled_bytes / rates_.ps_nic;
                break;
              case graph::CommOp::GradPush:
                s = b * node.share * summary_.pooled_bytes / rates_.nic;
                break;
              case graph::CommOp::DenseSync:
                s = rates_.dense_ps > 0.0
                    ? rates_.dense_sync_bytes / rates_.dense_ps : 0.0;
                break;
              default:
                break;
            }
            break;
        }
        out.push_back({resourceOf(node), s});
    }
    return out;
}

std::vector<NodePrice>
IterationModel::priceGpu(const std::vector<PhaseTime>& phases) const
{
    // Phase totals from the estimate, attributed to the graph nodes that
    // make them up so per-phase sums reproduce the breakdown exactly.
    auto phase = [&phases](const char* name) {
        for (const auto& ph : phases) {
            if (ph.name == name)
                return ph.seconds;
        }
        return 0.0;
    };
    const double t_mlp = phase("mlp_compute");
    const double t_launch = phase("kernel_dispatch");
    const double t_gather_gpu = phase("emb_gather_gpu");
    const double t_a2a = phase("emb_alltoall");
    const double t_gather_host = phase("emb_gather_host");
    const double t_pcie = phase("emb_pcie");
    const double t_remote = phase("emb_remote");
    const double t_allreduce = phase("dense_allreduce");
    const double t_input = phase("input_pipeline");

    const hw::Platform& p = system_.platform;
    const double g = static_cast<double>(p.num_gpus);
    const double bg = static_cast<double>(system_.batch_size) * g;
    const double frac_remote = plan_.remote_lookup_fraction;
    const double d = static_cast<double>(summary_.emb_dim);

    const double flops_total =
        summary_.mlp_flops + summary_.interaction_flops;

    // Gather-byte totals of each hosting device group.
    double gpu_bytes = 0.0, host_bytes = 0.0;
    for (const auto& node : graph_.nodes) {
        if (node.kind != graph::NodeKind::EmbeddingLookup)
            continue;
        if (node.device == graph::Device::Gpu)
            gpu_bytes += node.bytes_per_example;
        else if (node.device == graph::Device::HostCpu)
            host_bytes += node.bytes_per_example;
    }

    // The remote-PS phase splits over the RPC-leg nodes in proportion
    // to their service demands at the shared rates.
    auto remoteWeight = [&](const graph::Node& node) {
        switch (node.comm) {
          case graph::CommOp::PsRequest:
            return bg * node.share *
                (summary_.pooled_bytes + summary_.embedding_lookups *
                 params_.request_bytes_per_lookup) * 0.1 * frac_remote /
                rates_.nic;
          case graph::CommOp::PsGather:
            return bg * node.share * summary_.embedding_bytes *
                params_.emb_train_bytes_multiplier * frac_remote /
                rates_.ps_gather;
          case graph::CommOp::PsPool:
            return bg * node.share * summary_.embedding_lookups * d *
                4.0 * frac_remote / rates_.ps_pool;
          case graph::CommOp::PsResponse:
            return bg * node.share * summary_.pooled_bytes *
                frac_remote / rates_.ps_nic;
          case graph::CommOp::Deserialize:
            return 2.0 * bg * summary_.pooled_bytes * frac_remote /
                (params_.serialization_bw_per_socket *
                 static_cast<double>(p.num_cpu_sockets));
          default:
            return 0.0;
        }
    };
    double remote_total = 0.0;
    for (const auto& node : graph_.nodes) {
        if (node.kind == graph::NodeKind::Comm)
            remote_total += remoteWeight(node);
    }
    const double remote_scale = remote_total > 0.0
        ? t_remote / remote_total : 0.0;

    std::vector<NodePrice> out;
    out.reserve(graph_.numNodes());
    for (const auto& node : graph_.nodes) {
        double s = 0.0;
        switch (node.kind) {
          case graph::NodeKind::Gemm:
          case graph::NodeKind::Interaction:
            if (flops_total > 0.0)
                s = t_mlp * node.fwd_flops / flops_total;
            break;
          case graph::NodeKind::EmbeddingLookup:
            if (node.device == graph::Device::Gpu && gpu_bytes > 0.0) {
                s = t_gather_gpu * node.bytes_per_example / gpu_bytes;
            } else if (node.device == graph::Device::HostCpu &&
                       host_bytes > 0.0) {
                s = t_gather_host * node.bytes_per_example / host_bytes;
            }
            // SparsePs-hosted tables: served by the comm.ps_* legs.
            break;
          case graph::NodeKind::OptimizerUpdate:
            s = t_launch;
            break;
          case graph::NodeKind::Loss:
            break;
          case graph::NodeKind::Comm:
            switch (node.comm) {
              case graph::CommOp::Input:
                s = t_input;
                break;
              case graph::CommOp::AllToAll:
                s = t_a2a;
                break;
              case graph::CommOp::PcieStage:
                s = t_pcie;
                break;
              case graph::CommOp::AllReduce:
                s = t_allreduce;
                break;
              default:
                s = remote_scale * remoteWeight(node);
                break;
            }
            break;
        }
        out.push_back({resourceOf(node), s});
    }
    return out;
}

} // namespace cost
} // namespace recsim
