#include "sim/dist_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "cost/cache_model.h"
#include "des/event_queue.h"
#include "graph/step_graph.h"
#include "des/sim_object.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/random.h"

namespace recsim {
namespace sim {

namespace {

using des::EventQueue;
using des::LinkModel;
using des::Resource;
using des::secondsToTicks;
using des::Tick;
using des::ticksToSeconds;

/** A sparse parameter server: gather memory, pooling CPU, NIC. */
struct SparsePs
{
    std::unique_ptr<Resource> mem;    // gather bytes/s
    std::unique_ptr<Resource> cpu;    // pooling flops/s
    std::unique_ptr<LinkModel> nic;
    double gather_bytes_pe = 0.0;     // per trainer-example served here
    double pool_flops_pe = 0.0;
    double response_bytes_pe = 0.0;
    double request_bytes_pe = 0.0;
};

/**
 * Shared state of one simulated run. Resources are FIFO servers that
 * return completion ticks, so a worker computes its whole iteration
 * schedule synchronously at iteration start and re-arms itself at the
 * completion tick.
 */
class Simulation
{
  public:
    explicit Simulation(const DistSimConfig& cfg);

    DistSimResult run();

  private:
    void startWorker(std::size_t trainer, std::size_t worker);
    Tick cpuIteration(std::size_t trainer, std::size_t worker,
                      Tick start);
    Tick gpuIteration(std::size_t worker, Tick start);
    double noisy(double value);
    void finishIteration(std::size_t trainer, std::size_t worker,
                         Tick start, Tick end);

    /** Worker-track name, e.g. "trainer0.w1" / "gpu.w0". */
    std::string workerTrack(std::size_t trainer, std::size_t worker)
        const;

    static constexpr std::size_t kNoNode =
        std::numeric_limits<std::size_t>::max();

    /**
     * Attribute the interval [a, b) to one StepGraph node: per-node
     * time bookkeeping for DistSimResult::node_seconds plus a sim span
     * named by the node id when tracing.
     */
    void noteNode(std::size_t node_idx, const std::string& track,
                  Tick a, Tick b)
    {
        if (node_idx == kNoNode || b <= a)
            return;
        iter_nodes_.push_back({node_idx, ticksToSeconds(b - a)});
        if (obs::Tracer::enabled()) {
            obs::Tracer::global().addSimSpan(
                track, graph_->nodes[node_idx].id, a, b);
        }
    }

    /**
     * Subdivide [a, b) across several nodes proportionally to their
     * modeled cost fractions (which sum to 1).
     */
    void noteInterval(
        const std::vector<std::pair<std::size_t, double>>& weights,
        const std::string& track, Tick a, Tick b)
    {
        if (b <= a || weights.empty())
            return;
        const auto span = static_cast<double>(b - a);
        double acc = 0.0;
        Tick cur = a;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            acc += weights[i].second;
            Tick end = i + 1 == weights.size()
                ? b
                : a + static_cast<Tick>(span * acc + 0.5);
            end = std::min(std::max(end, cur), b);
            noteNode(weights[i].first, track, cur, end);
            cur = end;
        }
    }

    const DistSimConfig& cfg_;
    cost::IterationModel analytical_;
    EventQueue eq_;
    util::Rng rng_;

    // Trainer-side resources (CPU path: one per trainer; GPU path:
    // index 0 holds the GPU server).
    std::vector<std::unique_ptr<Resource>> trainer_cpu_;
    std::vector<std::unique_ptr<LinkModel>> trainer_nic_;
    /**
     * Gradient pushes are reserved at iteration-start time for a point
     * in the future; putting them on the same FIFO link as requests
     * would let those future reservations block other workers' current
     * requests (the FIFO resource model reserves in processing order).
     * A separate channel keeps the model causal; the uplink is rarely
     * the bottleneck, so the bandwidth split is a minor approximation.
     */
    std::vector<std::unique_ptr<LinkModel>> trainer_push_;
    std::vector<SparsePs> sparse_ps_;
    std::unique_ptr<LinkModel> dense_ps_nic_;

    // GPU-server resources.
    std::unique_ptr<Resource> gpu_compute_;
    std::unique_ptr<Resource> gpu_mem_;
    std::unique_ptr<LinkModel> interconnect_;
    std::unique_ptr<Resource> host_mem_;
    std::unique_ptr<Resource> host_cpu_;
    std::unique_ptr<LinkModel> pcie_;

    // Per-iteration demands (precomputed).
    double compute_seconds_iter_ = 0.0;
    double net_bytes_iter_ = 0.0;
    double dense_sync_bytes_ = 0.0;

    // StepGraph bookkeeping: the bound graph, the graph-node index of
    // every DES leg, and cost-fraction weights for subdividing the
    // monolithic compute/gather intervals across their nodes.
    const graph::StepGraph* graph_ = nullptr;
    std::vector<std::size_t> ps_request_node_, ps_gather_node_,
        ps_pool_node_, ps_response_node_, ps_push_node_;
    std::size_t dense_sync_node_ = kNoNode;
    std::size_t input_node_ = kNoNode, a2a_node_ = kNoNode,
        pcie_node_ = kNoNode, deser_node_ = kNoNode,
        allreduce_node_ = kNoNode, optimizer_node_ = kNoNode;
    std::vector<std::pair<std::size_t, double>> compute_weights_;
    std::vector<std::pair<std::size_t, double>> emb_gpu_weights_;
    std::vector<std::pair<std::size_t, double>> emb_host_weights_;

    /**
     * Edge-derived split of the compute interval: nodes with no comm
     * leg upstream (bottom MLP, projections, lookup marshalling) start
     * at iteration start and overlap the RPC/exchange legs; nodes
     * downstream of a comm leg (interaction onward) wait for it.
     * compute_pre_share_ is the pre-side fraction of the compute cost;
     * the weight lists are renormalized within their own interval.
     */
    double compute_pre_share_ = 0.0;
    std::vector<std::pair<std::size_t, double>> compute_pre_weights_;
    std::vector<std::pair<std::size_t, double>> compute_post_weights_;

    /** Scratch: (node index, seconds) of the iteration in flight. */
    std::vector<std::pair<std::size_t, double>> iter_nodes_;
    /** Committed per-node seconds over the measurement window. */
    std::vector<double> node_accum_;

    Tick measure_start_ = 0;
    Tick measure_end_ = 0;
    uint64_t iterations_done_ = 0;
    double latency_sum_ = 0.0;
    std::vector<uint64_t> worker_warmup_left_;
    bool gpu_mode_ = false;

    DistSimResult result_;
};

Simulation::Simulation(const DistSimConfig& cfg)
    : cfg_(cfg), analytical_(cfg.model, cfg.system, cfg.params),
      rng_(cfg.seed)
{
}

double
Simulation::noisy(double value)
{
    if (cfg_.service_noise_sigma <= 0.0)
        return value;
    return value * rng_.lognormal(0.0, cfg_.service_noise_sigma);
}

DistSimResult
Simulation::run()
{
    const auto& plan = analytical_.plan();
    if (!plan.feasible) {
        result_.feasible = false;
        result_.infeasible_reason = plan.infeasible_reason;
        return result_;
    }
    const auto& sys = cfg_.system;
    const auto& p = sys.platform;
    const auto& params = cfg_.params;
    // Work quantities come from the model's StepGraph — the same IR the
    // analytical model folds and the real trainer executes.
    const auto& sum = analytical_.workSummary();
    graph_ = &analytical_.stepGraph();
    node_accum_.assign(graph_->nodes.size(), 0.0);
    gpu_mode_ = p.num_gpus > 0;

    // Graph index of the comm node of each DES leg (a linear scan; a
    // few dozen lookups per run).
    auto nodeIdx = [this](graph::CommOp op, int shard) {
        const graph::Node* node = graph_->findComm(op, shard);
        return node == nullptr
            ? kNoNode
            : static_cast<std::size_t>(node - graph_->nodes.data());
    };

    const double fwd_flops = sum.mlp_flops + sum.interaction_flops;
    const double train_flops =
        fwd_flops * (1.0 + params.backward_flops_multiplier);
    const double b = static_cast<double>(sys.batch_size);
    const double dense_params = sum.dense_param_count;
    const double sync_period = static_cast<double>(
        std::max<std::size_t>(sys.easgd_sync_period, 1));
    dense_sync_bytes_ = 2.0 * dense_params * sizeof(float) / sync_period;

    const hw::Platform ps_hw = hw::Platform::dualSocketCpu();

    // Sparse PS shards (CPU path and GPU remote path share this).
    const bool remote = !gpu_mode_ || plan.remote_lookup_fraction > 0.0;
    if (remote && sys.num_sparse_ps > 0) {
        const double n_ps = static_cast<double>(sys.num_sparse_ps);
        for (std::size_t i = 0; i < sys.num_sparse_ps; ++i) {
            SparsePs ps;
            const double resident = plan.resident_bytes / n_ps;
            // Mirrors cost::IterationModel::sparsePsCapacity: the
            // placement's hot-tier hit share gathers at the managed
            // tier's rate; exact single-tier rate when no hot budget.
            const double gather_rate = cost::tieredGatherBandwidth(
                ps_hw.host.mem_bandwidth,
                ps_hw.host.hotTierBandwidth(), plan.hot_hit_fraction,
                resident,
                cost::kCpuLlcBytesPerSocket * ps_hw.num_cpu_sockets,
                ps_hw.host.random_access_efficiency,
                params.cached_gather_efficiency);
            const std::string name = "sparse_ps" + std::to_string(i);
            ps.mem = std::make_unique<Resource>(eq_, name + ".mem",
                                                gather_rate);
            ps.cpu = std::make_unique<Resource>(
                eq_, name + ".cpu",
                ps_hw.host.peak_flops * params.cpu_mlp_efficiency *
                    params.ps_pooling_flops_fraction);
            ps.nic = std::make_unique<LinkModel>(
                eq_, name + ".nic",
                ps_hw.network.bandwidth * params.network_goodput,
                secondsToTicks(ps_hw.network.latency));
            // This shard's share of the per-example lookup traffic,
            // as bound onto the graph's RPC-leg nodes.
            const std::size_t req =
                nodeIdx(graph::CommOp::PsRequest, static_cast<int>(i));
            const double share = req != kNoNode
                ? graph_->nodes[req].share : 0.0;
            ps_request_node_.push_back(req);
            ps_gather_node_.push_back(
                nodeIdx(graph::CommOp::PsGather, static_cast<int>(i)));
            ps_pool_node_.push_back(
                nodeIdx(graph::CommOp::PsPool, static_cast<int>(i)));
            ps_response_node_.push_back(
                nodeIdx(graph::CommOp::PsResponse, static_cast<int>(i)));
            ps_push_node_.push_back(
                nodeIdx(graph::CommOp::GradPush, static_cast<int>(i)));
            ps.gather_bytes_pe = sum.embedding_bytes *
                params.emb_train_bytes_multiplier * share;
            ps.pool_flops_pe = sum.embedding_lookups *
                static_cast<double>(sum.emb_dim) * 4.0 * share;
            ps.response_bytes_pe = sum.pooled_bytes * share;
            ps.request_bytes_pe = (sum.pooled_bytes +
                sum.embedding_lookups *
                    params.request_bytes_per_lookup) * share;
            sparse_ps_.push_back(std::move(ps));
        }
    }
    dense_sync_node_ = nodeIdx(graph::CommOp::DenseSync, -1);
    input_node_ = nodeIdx(graph::CommOp::Input, -1);
    a2a_node_ = nodeIdx(graph::CommOp::AllToAll, -1);
    pcie_node_ = nodeIdx(graph::CommOp::PcieStage, -1);
    deser_node_ = nodeIdx(graph::CommOp::Deserialize, -1);
    allreduce_node_ = nodeIdx(graph::CommOp::AllReduce, -1);
    optimizer_node_ = graph_->indexOf("optimizer");
    if (optimizer_node_ == graph::StepGraph::npos)
        optimizer_node_ = kNoNode;

    if (!gpu_mode_) {
        // CPU distributed training: per-trainer CPU (a rate-1 seconds
        // server) and NIC; one dense-PS NIC shared by all trainers.
        const double act_bytes_pe = sum.activation_bytes;
        const double llc =
            0.5 * cost::kCpuLlcBytesPerSocket * p.num_cpu_sockets;
        const double ws = b * act_bytes_pe;
        const double cache_factor = ws > llc
            ? std::pow(llc / ws, params.cpu_cache_pressure_exponent)
            : 1.0;
        const double host_flops = p.host.peak_flops *
            params.cpu_mlp_efficiency * cache_factor;
        // Mirrors IterationModel::estimateCpu(): unfused GEMM epilogue
        // traffic and the per-lookup-node dispatch charge ride the
        // compute interval, so fusePass shrinks the simulated column
        // exactly as it shrinks the analytical one.
        compute_seconds_iter_ = b * (train_flops / host_flops +
            (sum.epilogue_traffic_bytes +
             sum.bwd_epilogue_traffic_bytes) / p.host.mem_bandwidth +
            params.cpu_per_example_overhead +
            sum.embedding_lookups * params.cpu_per_lookup_overhead) +
            static_cast<double>(sum.embedding_tables) *
                params.cpu_per_table_dispatch +
            params.cpu_iteration_overhead;
        net_bytes_iter_ = b * (2.0 * sum.pooled_bytes +
            sum.embedding_lookups * params.request_bytes_per_lookup);

        // The trainer-compute interval is one monolithic service
        // acquisition; subdivide it across the graph's compute nodes by
        // the same per-node costs the analytical nodeBreakdown uses.
        {
            double total = 0.0;
            for (std::size_t i = 0; i < graph_->nodes.size(); ++i) {
                const auto& node = graph_->nodes[i];
                double c = 0.0;
                switch (node.kind) {
                  case graph::NodeKind::Gemm:
                  case graph::NodeKind::Interaction:
                    c = b * node.fwd_flops *
                        (1.0 + params.backward_flops_multiplier) /
                        host_flops +
                        b * (node.epilogue_traffic_bytes +
                             node.bwd_epilogue_traffic_bytes) /
                            p.host.mem_bandwidth;
                    break;
                  case graph::NodeKind::EmbeddingLookup:
                    c = b * node.lookups_per_example *
                            params.cpu_per_lookup_overhead +
                        params.cpu_per_table_dispatch;
                    break;
                  case graph::NodeKind::OptimizerUpdate:
                    c = b * params.cpu_per_example_overhead +
                        params.cpu_iteration_overhead;
                    break;
                  default:
                    break;
                }
                if (c > 0.0) {
                    compute_weights_.push_back({i, c});
                    total += c;
                }
            }
            for (auto& [idx, w] : compute_weights_)
                w /= total;
        }

        for (std::size_t t = 0; t < sys.num_trainers; ++t) {
            const std::string name = "trainer" + std::to_string(t);
            trainer_cpu_.push_back(std::make_unique<Resource>(
                eq_, name + ".cpu", 1.0));
            trainer_nic_.push_back(std::make_unique<LinkModel>(
                eq_, name + ".nic",
                p.network.bandwidth * params.network_goodput,
                secondsToTicks(p.network.latency)));
            trainer_push_.push_back(std::make_unique<LinkModel>(
                eq_, name + ".push",
                p.network.bandwidth * params.network_goodput,
                secondsToTicks(p.network.latency)));
        }
        if (sys.num_dense_ps > 0) {
            dense_ps_nic_ = std::make_unique<LinkModel>(
                eq_, "dense_ps.nic",
                static_cast<double>(sys.num_dense_ps) *
                    ps_hw.network.bandwidth * params.network_goodput,
                secondsToTicks(ps_hw.network.latency));
        }
    } else {
        // One GPU server; phases modeled as serially acquired resources.
        const double g = static_cast<double>(p.num_gpus);
        gpu_compute_ = std::make_unique<Resource>(
            eq_, "gpu.compute",
            g * p.gpu.peak_flops * params.gpu_mlp_efficiency);
        const double shards = static_cast<double>(
            std::max<std::size_t>(plan.gpus_used, 1));
        double max_shard = 0.0;
        for (std::size_t s = 0;
             s < std::min<std::size_t>(plan.partition.numShards(),
                                       static_cast<std::size_t>(g));
             ++s) {
            max_shard = std::max(max_shard,
                                 plan.partition.shard_bytes[s]);
        }
        const double gather_rate = cost::tieredGatherBandwidth(
            p.gpu.mem_bandwidth, p.gpu.hotTierBandwidth(),
            plan.hot_hit_fraction, max_shard, cost::kGpuL2Bytes,
            p.gpu.random_access_efficiency,
            params.cached_gather_efficiency);
        gpu_mem_ = std::make_unique<Resource>(
            eq_, "gpu.mem", shards * gather_rate);
        interconnect_ = std::make_unique<LinkModel>(
            eq_, "gpu.interconnect",
            shards * std::max(p.gpu_interconnect.bandwidth, 1.0),
            secondsToTicks(p.gpu_interconnect.latency));
        host_mem_ = std::make_unique<Resource>(
            eq_, "host.mem",
            cost::tieredGatherBandwidth(
                p.host.mem_bandwidth, p.host.hotTierBandwidth(),
                plan.hot_hit_fraction,
                plan.resident_bytes *
                    (1.0 - plan.gpu_lookup_fraction -
                     plan.remote_lookup_fraction),
                cost::kCpuLlcBytesPerSocket * p.num_cpu_sockets,
                p.host.random_access_efficiency,
                params.cached_gather_efficiency));
        host_cpu_ = std::make_unique<Resource>(
            eq_, "host.cpu", static_cast<double>(p.num_cpu_sockets));
        pcie_ = std::make_unique<LinkModel>(
            eq_, "host.pcie", g * p.host_gpu.bandwidth,
            secondsToTicks(p.host_gpu.latency));
        trainer_nic_.push_back(std::make_unique<LinkModel>(
            eq_, "gpu_server.nic",
            p.network.bandwidth * params.network_goodput,
            secondsToTicks(p.network.latency)));

        // Subdivision weights: GPU compute by node FLOPs, the gather
        // intervals by each table's bytes within its hosting device.
        double gpu_bytes = 0.0, host_bytes = 0.0;
        for (std::size_t i = 0; i < graph_->nodes.size(); ++i) {
            const auto& node = graph_->nodes[i];
            if ((node.kind == graph::NodeKind::Gemm ||
                 node.kind == graph::NodeKind::Interaction) &&
                node.fwd_flops > 0.0 && fwd_flops > 0.0) {
                compute_weights_.push_back(
                    {i, node.fwd_flops / fwd_flops});
            }
            if (node.kind != graph::NodeKind::EmbeddingLookup)
                continue;
            if (node.device == graph::Device::Gpu) {
                emb_gpu_weights_.push_back({i, node.bytes_per_example});
                gpu_bytes += node.bytes_per_example;
            } else if (node.device == graph::Device::HostCpu) {
                emb_host_weights_.push_back({i, node.bytes_per_example});
                host_bytes += node.bytes_per_example;
            }
        }
        for (auto& [idx, w] : emb_gpu_weights_)
            w /= gpu_bytes;
        for (auto& [idx, w] : emb_host_weights_)
            w /= host_bytes;
    }

    // Split the compute interval on the graph's dependency edges: a
    // compute node downstream of a comm leg (interaction and everything
    // after it — the pooled vectors join there) cannot start before the
    // leg completes, while the rest (bottom MLP, projections, lookup
    // marshalling) is ready at iteration start and genuinely overlaps
    // the comm. The input pipeline is excluded: it gates the whole
    // iteration and is scheduled explicitly on the GPU path.
    {
        std::vector<char> downstream(graph_->nodes.size(), 0);
        for (std::size_t i : graph_->topoOrder()) {
            const auto& node = graph_->nodes[i];
            bool flag = node.kind == graph::NodeKind::Comm &&
                node.comm != graph::CommOp::Input;
            for (std::size_t d : node.deps)
                flag = flag || downstream[d] != 0;
            downstream[i] = flag ? 1 : 0;
        }
        double pre_mass = 0.0, total_mass = 0.0;
        for (const auto& [idx, w] : compute_weights_) {
            total_mass += w;
            if (downstream[idx] == 0)
                pre_mass += w;
        }
        compute_pre_share_ =
            total_mass > 0.0 ? pre_mass / total_mass : 0.0;
        for (const auto& [idx, w] : compute_weights_) {
            (downstream[idx] != 0 ? compute_post_weights_
                                  : compute_pre_weights_)
                .push_back({idx, w});
        }
        const double post_mass = total_mass - pre_mass;
        for (auto& [idx, w] : compute_pre_weights_) {
            if (pre_mass > 0.0)
                w /= pre_mass;
        }
        for (auto& [idx, w] : compute_post_weights_) {
            if (post_mass > 0.0)
                w /= post_mass;
        }
    }

    // Launch workers and run.
    const std::size_t workers_per_trainer =
        std::max<std::size_t>(sys.hogwild_threads, 1);
    const std::size_t n_trainers = gpu_mode_ ? 1 : sys.num_trainers;
    const uint64_t total_workers = n_trainers * workers_per_trainer;
    worker_warmup_left_.assign(total_workers, cfg_.warmup_iterations);

    // Warmup horizon is open-ended; the measurement window opens when
    // every worker has finished warmup. We approximate by running a
    // generous limit and only counting iterations inside the window.
    measure_start_ = secondsToTicks(0.05);
    measure_end_ = measure_start_ + secondsToTicks(cfg_.measure_seconds);

    for (std::size_t t = 0; t < n_trainers; ++t)
        for (std::size_t w = 0; w < workers_per_trainer; ++w)
            startWorker(t, w);

    eq_.run(measure_end_);

    const double window = ticksToSeconds(measure_end_ - measure_start_);
    const double examples_per_iter = gpu_mode_
        ? b * static_cast<double>(p.num_gpus) : b;
    result_.iterations = iterations_done_;
    result_.throughput =
        static_cast<double>(iterations_done_) * examples_per_iter /
        window;
    result_.mean_iteration_seconds = iterations_done_
        ? latency_sum_ / static_cast<double>(iterations_done_) : 0.0;

    auto record = [&](const std::string& name, double util) {
        result_.utilization[name] = std::min(1.0, util);
    };
    const Tick end = measure_end_;
    for (std::size_t t = 0; t < trainer_cpu_.size(); ++t)
        record(trainer_cpu_[t]->name(),
               trainer_cpu_[t]->utilization(end));
    for (std::size_t t = 0; t < trainer_nic_.size(); ++t)
        record(trainer_nic_[t]->name(),
               trainer_nic_[t]->utilization(end));
    for (auto& ps : sparse_ps_) {
        record(ps.mem->name(), ps.mem->utilization(end));
        record(ps.cpu->name(), ps.cpu->utilization(end));
        record(ps.nic->name(), ps.nic->utilization(end));
    }
    if (dense_ps_nic_)
        record(dense_ps_nic_->name(), dense_ps_nic_->utilization(end));
    if (gpu_compute_) {
        record(gpu_compute_->name(), gpu_compute_->utilization(end));
        record(gpu_mem_->name(), gpu_mem_->utilization(end));
        record(interconnect_->name(), interconnect_->utilization(end));
        record(host_mem_->name(), host_mem_->utilization(end));
        record(host_cpu_->name(), host_cpu_->utilization(end));
        record(pcie_->name(), pcie_->utilization(end));
    }
    if (iterations_done_ > 0) {
        const double n = static_cast<double>(iterations_done_);
        for (std::size_t i = 0; i < graph_->nodes.size(); ++i) {
            if (node_accum_[i] > 0.0)
                result_.node_seconds[graph_->nodes[i].id] =
                    node_accum_[i] / n;
        }
    }
    return result_;
}

void
Simulation::startWorker(std::size_t trainer, std::size_t worker)
{
    eq_.scheduleAfter(0, [this, trainer, worker] {
        const Tick start = eq_.now();
        const Tick end = gpu_mode_
            ? gpuIteration(worker, start)
            : cpuIteration(trainer, worker, start);
        finishIteration(trainer, worker, start, end);
    });
}

void
Simulation::finishIteration(std::size_t trainer, std::size_t worker,
                            Tick start, Tick end)
{
    if (obs::Tracer::enabled() && end > start) {
        obs::Tracer::global().addSimSpan(workerTrack(trainer, worker),
                                         "iteration", start, end);
    }
    // Count by completion time only: warmup is excluded by the window
    // opening, so queueing delay under many workers does not eat into
    // the measured window.
    if (end >= measure_start_ && end <= measure_end_) {
        ++iterations_done_;
        latency_sum_ += ticksToSeconds(end - start);
        for (const auto& [idx, s] : iter_nodes_)
            node_accum_[idx] += s;
    }
    iter_nodes_.clear();
    if (end >= measure_end_)
        return;
    eq_.schedule(end, [this, trainer, worker, end] {
        const Tick next_end = gpu_mode_
            ? gpuIteration(worker, end)
            : cpuIteration(trainer, worker, end);
        finishIteration(trainer, worker, end, next_end);
    });
}

std::string
Simulation::workerTrack(std::size_t trainer, std::size_t worker) const
{
    return (gpu_mode_ ? "gpu" : "trainer" + std::to_string(trainer)) +
        ".w" + std::to_string(worker);
}

Tick
Simulation::cpuIteration(std::size_t trainer, std::size_t worker,
                         Tick start)
{
    const double b = static_cast<double>(cfg_.system.batch_size);
    auto& nic = *trainer_nic_[trainer];
    auto& cpu = *trainer_cpu_[trainer];
    const std::string track = obs::Tracer::enabled()
        ? workerTrack(trainer, worker) : std::string();

    // 1. Issue lookup requests; the per-shard RPC chains run
    // independently (graph edges: request -> gather -> pool ->
    // response per shard).
    Tick responses = start;
    for (std::size_t i = 0; i < sparse_ps_.size(); ++i) {
        auto& ps = sparse_ps_[i];
        if (ps.gather_bytes_pe <= 0.0 && ps.response_bytes_pe <= 0.0)
            continue;
        const Tick sent =
            nic.transferAt(start, noisy(b * ps.request_bytes_pe * 0.1));
        const Tick gathered =
            ps.mem->acquireAt(sent, noisy(b * ps.gather_bytes_pe));
        const Tick pooled =
            ps.cpu->acquireAt(gathered, noisy(b * ps.pool_flops_pe));
        const Tick replied =
            ps.nic->transferAt(pooled, noisy(b * ps.response_bytes_pe));
        noteNode(ps_request_node_[i], track, start, sent);
        noteNode(ps_gather_node_[i], track, sent, gathered);
        noteNode(ps_pool_node_[i], track, gathered, pooled);
        noteNode(ps_response_node_[i], track, pooled, replied);
        responses = std::max(responses, replied);
    }

    // 2a. Compute with no comm upstream (bottom MLP, projections,
    // lookup marshalling) overlaps the RPC legs — the comm/compute
    // overlap the paper's async CPU training relies on (Sec. V).
    Tick pre_done = start;
    const double pre_seconds =
        compute_seconds_iter_ * compute_pre_share_;
    if (pre_seconds > 0.0) {
        pre_done = cpu.acquireAt(start, noisy(pre_seconds));
        noteInterval(compute_pre_weights_, track, start, pre_done);
    }

    // 2b. Compute downstream of the pooled responses (interaction,
    // top MLP, loss, optimizer) joins on responses + local compute.
    const Tick join = std::max(pre_done, responses);
    Tick computed = join;
    const double post_seconds = compute_seconds_iter_ - pre_seconds;
    if (post_seconds > 0.0) {
        computed = cpu.acquireAt(join, noisy(post_seconds));
        noteInterval(compute_post_weights_, track, join, computed);
    }

    // 3. Push pooled gradients back and amortized EASGD dense sync.
    Tick done = computed;
    auto& push = *trainer_push_[trainer];
    for (std::size_t i = 0; i < sparse_ps_.size(); ++i) {
        auto& ps = sparse_ps_[i];
        if (ps.response_bytes_pe <= 0.0)
            continue;
        const Tick pushed = push.transferAt(
            computed, noisy(b * ps.response_bytes_pe));
        noteNode(ps_push_node_[i], track, computed, pushed);
        done = std::max(done, pushed);
    }
    if (dense_ps_nic_ && dense_sync_bytes_ > 0.0) {
        const Tick synced = dense_ps_nic_->transferAt(
            computed, noisy(dense_sync_bytes_));
        noteNode(dense_sync_node_, track, computed, synced);
        done = std::max(done, synced);
    }
    return done;
}

Tick
Simulation::gpuIteration(std::size_t worker, Tick start)
{
    const auto& sys = cfg_.system;
    const auto& p = sys.platform;
    const auto& params = cfg_.params;
    const auto& plan = analytical_.plan();
    const auto& sum = analytical_.workSummary();
    const double g = static_cast<double>(p.num_gpus);
    const double bg = static_cast<double>(sys.batch_size) * g;
    const std::string track = obs::Tracer::enabled()
        ? workerTrack(0, worker) : std::string();

    const double frac_gpu = plan.gpu_lookup_fraction;
    const double frac_remote = plan.remote_lookup_fraction;
    const double frac_host = std::max(0.0, 1.0 - frac_gpu - frac_remote);

    // Input pipeline: host CPU transform + PCIe staging.
    const Tick input_cpu = host_cpu_->acquireAt(start, noisy(
        bg * (params.host_cpu_per_example +
              sum.embedding_lookups * params.host_cpu_per_lookup)));
    const double read_bytes =
        bg * (sum.dense_input_bytes + sum.embedding_lookups * 8.0 + 4.0);
    const Tick input_done =
        pcie_->transferAt(input_cpu, noisy(read_bytes));
    noteNode(input_node_, track, start, input_done);

    // Embedding phase.
    Tick emb_done = input_done;
    if (frac_gpu > 0.0) {
        const Tick gathered = gpu_mem_->acquireAt(input_done, noisy(
            bg * sum.embedding_bytes * params.emb_train_bytes_multiplier *
            frac_gpu * std::max(plan.access_imbalance, 1.0)));
        const Tick exchanged = interconnect_->transferAt(gathered, noisy(
            2.0 * bg * sum.pooled_bytes * frac_gpu * (g - 1.0) / g));
        noteInterval(emb_gpu_weights_, track, input_done, gathered);
        noteNode(a2a_node_, track, gathered, exchanged);
        emb_done = std::max(emb_done, exchanged);
    }
    if (frac_host > 0.0) {
        const Tick gathered = host_mem_->acquireAt(input_done, noisy(
            bg * sum.embedding_bytes * params.emb_train_bytes_multiplier *
            frac_host));
        const Tick staged = pcie_->transferAt(gathered, noisy(
            2.0 * bg * sum.pooled_bytes * frac_host));
        noteInterval(emb_host_weights_, track, input_done, gathered);
        noteNode(pcie_node_, track, gathered, staged);
        emb_done = std::max(emb_done, staged);
    }
    if (frac_remote > 0.0 && !sparse_ps_.empty()) {
        auto& nic = *trainer_nic_[0];
        Tick responses = input_done;
        for (std::size_t i = 0; i < sparse_ps_.size(); ++i) {
            auto& ps = sparse_ps_[i];
            const Tick sent = nic.transferAt(input_done, noisy(
                bg * ps.request_bytes_pe * 0.1 * frac_remote));
            const Tick gathered = ps.mem->acquireAt(sent, noisy(
                bg * ps.gather_bytes_pe * frac_remote));
            const Tick pooled = ps.cpu->acquireAt(gathered, noisy(
                bg * ps.pool_flops_pe * frac_remote));
            const Tick replied = ps.nic->transferAt(pooled, noisy(
                bg * ps.response_bytes_pe * frac_remote));
            noteNode(ps_request_node_[i], track, input_done, sent);
            noteNode(ps_gather_node_[i], track, sent, gathered);
            noteNode(ps_pool_node_[i], track, gathered, pooled);
            noteNode(ps_response_node_[i], track, pooled, replied);
            responses = std::max(responses, replied);
        }
        // Deserialization on the host CPUs.
        const Tick deserialized = host_cpu_->acquireAt(responses, noisy(
            2.0 * bg * sum.pooled_bytes * frac_remote /
            params.serialization_bw_per_socket));
        noteNode(deser_node_, track, responses, deserialized);
        emb_done = std::max(emb_done, deserialized);
    }

    // MLP compute + kernel dispatch + allreduce. Compute with no comm
    // upstream (the bottom MLP) overlaps the embedding exchange, per
    // the graph edges — dense compute hiding the all-to-all; the rest
    // (interaction onward) waits for the pooled embeddings.
    const double fwd_flops = sum.mlp_flops + sum.interaction_flops;
    const double train_flops =
        fwd_flops * (1.0 + params.backward_flops_multiplier);
    Tick pre_done = input_done;
    const double pre_flops = bg * train_flops * compute_pre_share_;
    if (pre_flops > 0.0) {
        pre_done = gpu_compute_->acquireAt(input_done, noisy(pre_flops));
        noteInterval(compute_pre_weights_, track, input_done, pre_done);
    }
    const Tick joined = std::max(emb_done, pre_done);
    const Tick dispatched = joined +
        secondsToTicks(params.gpu_iteration_overhead);
    const Tick computed = gpu_compute_->acquireAt(
        dispatched, noisy(bg * train_flops - pre_flops));
    noteNode(optimizer_node_, track, joined, dispatched);
    noteInterval(compute_post_weights_, track, dispatched, computed);
    const double dense_params = sum.dense_param_count;
    const double allreduce_bw = p.has_nvlink
        ? p.gpu_interconnect.bandwidth : p.host_gpu.bandwidth / 2.0;
    const Tick reduced = computed + secondsToTicks(
        dense_params * sizeof(float) * (g - 1.0) / g / allreduce_bw);
    noteNode(allreduce_node_, track, computed, reduced);
    return reduced;
}

} // namespace

double
DistSimResult::meanUtilization(const std::string& key) const
{
    double total = 0.0;
    std::size_t count = 0;
    for (const auto& [name, util] : utilization) {
        if (name.find(key) != std::string::npos) {
            total += util;
            ++count;
        }
    }
    return count ? total / static_cast<double>(count) : 0.0;
}


DistSimResult
runDistSim(const DistSimConfig& config)
{
    Simulation simulation(config);
    return simulation.run();
}

} // namespace sim
} // namespace recsim
