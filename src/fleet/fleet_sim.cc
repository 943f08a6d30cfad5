#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "cost/iteration_model.h"
#include "util/logging.h"
#include "util/random.h"

namespace recsim {
namespace fleet {

UtilizationDistributions
utilizationStudy(const UtilizationStudyConfig& config)
{
    util::Rng rng(config.seed);
    UtilizationDistributions out;
    const char* keys[] = {
        "trainer_cpu", "trainer_mem_bw", "trainer_mem_capacity",
        "trainer_network", "ps_cpu", "ps_mem_bw", "ps_mem_capacity",
        "ps_network",
    };
    stats::SampleSet* sets[std::size(keys)];
    for (std::size_t k = 0; k < std::size(keys); ++k)
        sets[k] = &out[keys[k]];

    for (std::size_t run = 0; run < config.num_runs; ++run) {
        // Per-run model-configuration jitter: engineers vary feature
        // lengths, add/drop tables, and tune the batch size.
        model::DlrmConfig m = config.base_model;
        util::Rng run_rng = rng.fork(run + 1);
        const double jitter = config.config_jitter;
        for (auto& spec : m.sparse) {
            spec.mean_length = std::max(
                1.0, spec.mean_length *
                    run_rng.lognormal(0.0, jitter));
        }
        if (!m.sparse.empty() && run_rng.bernoulli(0.3)) {
            // Occasionally drop a table (feature removed).
            m.sparse.erase(m.sparse.begin() +
                static_cast<long>(run_rng.uniformInt(m.sparse.size())));
        }
        cost::SystemConfig sys = config.system;
        sys.batch_size = std::max<std::size_t>(
            32, static_cast<std::size_t>(
                static_cast<double>(sys.batch_size) *
                run_rng.lognormal(0.0, jitter * 0.5)));

        const auto est =
            cost::IterationModel(std::move(m), std::move(sys)).estimate();
        if (!est.feasible)
            continue;
        // System-level noise: multiplicative on the achieved
        // utilizations, modeling co-location and hardware variability.
        auto noisy = [&](double u) {
            return std::clamp(
                u * run_rng.lognormal(0.0, config.system_noise_sigma),
                0.0, 1.0);
        };
        const double utils[] = {  // in key order
            est.util.trainer_cpu, est.util.trainer_mem_bw,
            est.util.trainer_mem_capacity, est.util.trainer_network,
            est.util.sparse_ps_cpu, est.util.sparse_ps_mem_bw,
            est.util.sparse_ps_mem_capacity, est.util.sparse_ps_network,
        };
        for (std::size_t k = 0; k < std::size(keys); ++k)
            sets[k]->add(noisy(utils[k]));
    }
    return out;
}

ServerCountDistributions
serverCountStudy(const ServerCountStudyConfig& config)
{
    util::Rng rng(config.seed);
    ServerCountDistributions out;
    const double ps_capacity_bytes =
        hw::Platform::dualSocketCpu().host.mem_capacity * 0.55;

    for (std::size_t i = 0; i < config.num_workflows; ++i) {
        // Trainer counts: a modal de-facto value plus a lognormal tail
        // of workflows with special throughput requirements.
        std::size_t trainers;
        if (rng.bernoulli(config.modal_trainer_fraction)) {
            trainers = config.modal_trainers;
        } else {
            trainers = std::max<uint64_t>(
                1, static_cast<uint64_t>(
                    static_cast<double>(config.modal_trainers) *
                    rng.lognormal(0.0, 0.7)));
            trainers = std::min<std::size_t>(trainers, 60);
        }
        out.trainers.add(static_cast<double>(trainers));

        // Parameter-server counts: the larger of a bandwidth-driven
        // baseline (how many shards the lookup traffic needs) and the
        // capacity-driven minimum (how many 256 GB servers hold the
        // tables). Model sizes span ~1 GB to ~1 TB across experiments,
        // so the distribution is wide (Fig 9, right).
        const double model_bytes = 4e9 * rng.lognormal(2.0, 1.5);
        const double capacity_driven =
            std::ceil(model_bytes / ps_capacity_bytes);
        const double bandwidth_driven =
            std::ceil(rng.lognormal(std::log(6.0) - 0.5, 1.0));
        const auto ps = static_cast<std::size_t>(std::clamp(
            std::max(capacity_driven, bandwidth_driven), 1.0, 40.0));
        out.parameter_servers.add(static_cast<double>(ps));
    }
    return out;
}

} // namespace fleet
} // namespace recsim
