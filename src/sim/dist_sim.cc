#include "sim/dist_sim.h"

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "des/event_queue.h"
#include "des/sim_object.h"
#include "graph/step_graph.h"
#include "obs/flight_recorder.h"
#include "util/logging.h"
#include "util/random.h"

namespace recsim {
namespace sim {

namespace {

using cost::Resource;
using des::EventQueue;
using des::secondsToTicks;
using des::Tick;
using des::ticksToSeconds;

/**
 * One resource instance: a FIFO server of seconds of work, or a link,
 * whose transfers also take its latency after leaving the wire (so
 * they queue on bandwidth only).
 */
struct Instance
{
    std::unique_ptr<des::Resource> server;
    std::unique_ptr<des::LinkModel> link;
    /** Listed in DistSimResult::utilization. */
    bool reported = true;

    /** Finish tick of @p seconds of work that is ready at @p ready. */
    Tick hold(Tick ready, double seconds)
    {
        return link ? link->transferAt(ready, seconds)
                    : server->acquireAt(ready, seconds);
    }
    const std::string& name() const
    {
        return link ? link->name() : server->name();
    }
    double utilization(Tick end) const
    {
        return link ? link->utilization(end) : server->utilization(end);
    }
};

/** One node of a worker's iteration, in topological order. */
struct Step
{
    std::size_t node = 0;
    double seconds = 0.0;
    /** What the node holds; null for a pure delay. */
    Instance* instance = nullptr;
    /** The node's deps: [dep_begin, dep_end) of Simulation::deps_. */
    std::size_t dep_begin = 0;
    std::size_t dep_end = 0;
};

/**
 * Shared state of one simulated run: a list scheduler over the priced
 * StepGraph. Resources are FIFO servers that return completion ticks,
 * so a worker schedules its whole iteration synchronously when it
 * starts and re-arms itself at the completion tick.
 */
class Simulation
{
  public:
    explicit Simulation(const DistSimConfig& cfg);

    DistSimResult run();

  private:
    struct Worker
    {
        std::size_t trainer = 0;
        /** Trace track, e.g. "trainer0.w1" / "gpu.w0". */
        std::string track;
        /** Its interned simulated track (internTraceNames()). */
        uint32_t track_id = 0;
    };

    /** Add an instance of @p kind; latency < 0 makes a server. */
    void addInstance(Resource kind, std::string name,
                     double latency = -1.0, bool reported = true);
    void buildInstances();
    void buildSteps(std::size_t trainers);
    /** Run worker @p w's iteration starting now; re-arm at its end. */
    void iterate(std::size_t w);
    /** Intern the workers' tracks and the span names once, on the
     *  first iteration that runs while recording. */
    void internTraceNames();
    double noisy(double value);

    const DistSimConfig& cfg_;
    cost::IterationModel analytical_;
    EventQueue eq_;
    util::Rng rng_;

    std::vector<Instance> instances_;
    /** Instance indices of each resource kind: one per trainer for the
     *  Trainer* kinds, one per shard for the Ps* kinds, else one. */
    std::array<std::vector<std::size_t>, cost::kNumResources> by_kind_;

    /** Every trainer's iteration, trainer-major, each in topological
     *  order, and the flattened deps the steps index. */
    std::vector<Step> steps_;
    std::vector<std::size_t> deps_;
    std::vector<Worker> workers_;
    bool gpu_mode_ = false;

    /** Scratch: ready and finish ticks of the iteration in flight. */
    std::vector<Tick> ready_, finish_;
    /** Committed per-node ticks over the measurement window. */
    std::vector<Tick> node_accum_;
    /** Recorder channel per node, then the iteration's (empty until
     *  internTraceNames()). */
    std::vector<uint32_t> span_channels_;

    Tick measure_start_ = 0;
    Tick measure_end_ = 0;
    uint64_t iterations_done_ = 0;
    double latency_sum_ = 0.0;
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

void
Simulation::addInstance(Resource kind, std::string name, double latency,
                        bool reported)
{
    by_kind_[static_cast<std::size_t>(kind)].push_back(instances_.size());
    Instance instance;
    if (latency < 0.0) {
        instance.server =
            std::make_unique<des::Resource>(eq_, std::move(name), 1.0);
    } else {
        instance.link = std::make_unique<des::LinkModel>(
            eq_, std::move(name), 1.0, secondsToTicks(latency));
    }
    instance.reported = reported;
    instances_.push_back(std::move(instance));
}

void
Simulation::buildInstances()
{
    const auto& sys = cfg_.system;
    const auto& p = sys.platform;
    const double ps_latency =
        hw::Platform::dualSocketCpu().network.latency;

    // Sparse PS shards (CPU path and GPU remote path share these).
    if (!gpu_mode_ || analytical_.plan().remote_lookup_fraction > 0.0) {
        for (std::size_t i = 0; i < sys.num_sparse_ps; ++i) {
            const std::string name = "sparse_ps" + std::to_string(i);
            addInstance(Resource::PsMem, name + ".mem");
            addInstance(Resource::PsCpu, name + ".cpu");
            addInstance(Resource::PsNic, name + ".nic", ps_latency);
        }
    }
    if (!gpu_mode_) {
        // CPU distributed training: a CPU, a NIC and a push uplink per
        // trainer; one dense-PS NIC shared by all trainers. Gradient
        // pushes ride their own uplink: a worker reserves them for the
        // end of its iteration when it starts, and on the request NIC
        // those future reservations would block other workers' current
        // requests (the FIFO servers reserve in processing order).
        for (std::size_t t = 0; t < sys.num_trainers; ++t) {
            const std::string name = "trainer" + std::to_string(t);
            addInstance(Resource::TrainerCpu, name + ".cpu");
            addInstance(Resource::TrainerNic, name + ".nic",
                        p.network.latency);
            addInstance(Resource::TrainerPush, name + ".push",
                        p.network.latency, false);
        }
        if (sys.num_dense_ps > 0)
            addInstance(Resource::DensePsNic, "dense_ps.nic",
                        ps_latency);
        return;
    }
    // One GPU server.
    addInstance(Resource::GpuCompute, "gpu.compute");
    addInstance(Resource::GpuMem, "gpu.mem");
    addInstance(Resource::Interconnect, "gpu.interconnect",
                p.gpu_interconnect.latency);
    addInstance(Resource::HostMem, "host.mem");
    addInstance(Resource::HostCpu, "host.cpu");
    addInstance(Resource::Pcie, "host.pcie", p.host_gpu.latency);
    addInstance(Resource::TrainerNic, "gpu_server.nic",
                p.network.latency);
}

void
Simulation::buildSteps(std::size_t trainers)
{
    const graph::StepGraph& graph = analytical_.stepGraph();
    const std::vector<cost::NodePrice>& prices = analytical_.prices();
    const std::vector<std::size_t> order = graph.topoOrder();
    for (std::size_t t = 0; t < trainers; ++t) {
        for (std::size_t i : order) {
            const graph::Node& node = graph.nodes[i];
            Step step;
            step.node = i;
            step.seconds = prices[i].seconds;
            step.dep_begin = deps_.size();
            deps_.insert(deps_.end(), node.deps.begin(), node.deps.end());
            step.dep_end = deps_.size();
            const Resource kind = prices[i].resource;
            if (step.seconds > 0.0 && kind != Resource::None) {
                const bool per_shard = kind == Resource::PsMem ||
                    kind == Resource::PsCpu || kind == Resource::PsNic;
                const bool per_trainer = kind == Resource::TrainerCpu ||
                    kind == Resource::TrainerNic ||
                    kind == Resource::TrainerPush;
                const std::size_t k = per_shard
                    ? static_cast<std::size_t>(node.shard)
                    : per_trainer ? t : 0;
                const auto& slots =
                    by_kind_[static_cast<std::size_t>(kind)];
                RECSIM_ASSERT(k < slots.size(),
                              "node '{}' is priced on a resource the "
                              "simulated system lacks", node.id);
                step.instance = &instances_[slots[k]];
            }
            steps_.push_back(step);
        }
    }
}

DistSimResult
Simulation::run()
{
    DistSimResult result;
    const auto& plan = analytical_.plan();
    if (!plan.feasible) {
        result.feasible = false;
        result.infeasible_reason = plan.infeasible_reason;
        return result;
    }
    const auto& sys = cfg_.system;
    const auto& p = sys.platform;
    gpu_mode_ = p.num_gpus > 0;
    const std::size_t n_trainers = gpu_mode_ ? 1 : sys.num_trainers;
    const std::size_t n_nodes = analytical_.stepGraph().numNodes();

    buildInstances();
    buildSteps(n_trainers);
    ready_.assign(n_nodes, 0);
    finish_.assign(n_nodes, 0);
    node_accum_.assign(n_nodes, 0);

    const std::size_t workers_per_trainer =
        std::max<std::size_t>(sys.hogwild_threads, 1);
    for (std::size_t t = 0; t < n_trainers; ++t) {
        for (std::size_t w = 0; w < workers_per_trainer; ++w) {
            workers_.push_back(
                {t, (gpu_mode_ ? "gpu" : "trainer" + std::to_string(t)) +
                        ".w" + std::to_string(w)});
        }
    }

    // The measurement window opens after a fixed warmup and counts
    // iterations by completion time, so queueing delay under many
    // workers does not eat into it.
    measure_start_ = secondsToTicks(0.05);
    measure_end_ = measure_start_ + secondsToTicks(cfg_.measure_seconds);
    for (std::size_t w = 0; w < workers_.size(); ++w)
        eq_.scheduleAfter(0, [this, w] { iterate(w); });
    eq_.run(measure_end_);

    const double window = ticksToSeconds(measure_end_ - measure_start_);
    const double b = static_cast<double>(sys.batch_size);
    const double examples_per_iter = gpu_mode_
        ? b * static_cast<double>(p.num_gpus) : b;
    result.iterations = iterations_done_;
    result.throughput =
        static_cast<double>(iterations_done_) * examples_per_iter /
        window;
    result.mean_iteration_seconds = iterations_done_
        ? latency_sum_ / static_cast<double>(iterations_done_) : 0.0;

    for (const Instance& instance : instances_) {
        if (instance.reported) {
            result.utilization[instance.name()] =
                std::min(1.0, instance.utilization(measure_end_));
        }
    }
    if (iterations_done_ > 0) {
        const auto& nodes = analytical_.stepGraph().nodes;
        const double n = static_cast<double>(iterations_done_);
        for (std::size_t i = 0; i < n_nodes; ++i) {
            if (node_accum_[i] > 0) {
                result.node_seconds[nodes[i].id] =
                    ticksToSeconds(node_accum_[i]) / n;
            }
        }
    }
    return result;
}

void
Simulation::iterate(std::size_t w)
{
    const Worker& worker = workers_[w];
    const Tick start = eq_.now();
    const std::size_t n_nodes = ready_.size();
    const Step* steps = steps_.data() + worker.trainer * n_nodes;

    // A node is ready when its deps finish and holds its resource for
    // its (noisy) price; nodes priced at zero pass straight through.
    Tick end = start;
    for (std::size_t k = 0; k < n_nodes; ++k) {
        const Step& step = steps[k];
        Tick ready = start;
        for (std::size_t j = step.dep_begin; j < step.dep_end; ++j)
            ready = std::max(ready, finish_[deps_[j]]);
        Tick finish = ready;
        if (step.seconds > 0.0) {
            const double seconds = noisy(step.seconds);
            finish = step.instance == nullptr
                ? ready + secondsToTicks(seconds)
                : step.instance->hold(ready, seconds);
        }
        ready_[step.node] = ready;
        finish_[step.node] = finish;
        end = std::max(end, finish);
    }

    if (obs::FlightRecorder::enabled()) {
        if (span_channels_.empty())
            internTraceNames();
        auto& recorder = obs::FlightRecorder::global();
        for (std::size_t i = 0; i < n_nodes; ++i) {
            if (finish_[i] > ready_[i]) {
                recorder.recordSimSpan(worker.track_id, span_channels_[i],
                                       ready_[i], finish_[i]);
            }
        }
        if (end > start)
            recorder.recordSimSpan(worker.track_id,
                                   span_channels_[n_nodes], start, end);
    }
    if (end >= measure_start_ && end <= measure_end_) {
        ++iterations_done_;
        latency_sum_ += ticksToSeconds(end - start);
        for (std::size_t i = 0; i < n_nodes; ++i)
            node_accum_[i] += finish_[i] - ready_[i];
    }
    if (end < measure_end_)
        eq_.schedule(end, [this, w] { iterate(w); });
}

void
Simulation::internTraceNames()
{
    auto& recorder = obs::FlightRecorder::global();
    for (Worker& worker : workers_)
        worker.track_id = recorder.internSimTrack(worker.track);
    for (const auto& node : analytical_.stepGraph().nodes)
        span_channels_.push_back(recorder.internChannel(node.id));
    span_channels_.push_back(recorder.internChannel("iteration"));
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
