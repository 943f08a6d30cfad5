#include "des/sim_object.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "util/logging.h"

namespace recsim {
namespace des {

SimObject::SimObject(EventQueue& eq, std::string name)
    : eq_(eq), name_(std::move(name))
{
}

Resource::Resource(EventQueue& eq, std::string name, double rate)
    : SimObject(eq, std::move(name)), rate_(rate)
{
    RECSIM_ASSERT(rate > 0.0, "resource '{}' needs a positive rate",
                  this->name());
}

Tick
Resource::acquire(double units)
{
    return acquireAt(now(), units);
}

Tick
Resource::acquireAt(Tick earliest, double units)
{
    RECSIM_ASSERT(units >= 0.0, "negative resource demand");
    const Tick start = std::max(earliest, free_at_);
    const Tick service = secondsToTicks(units / rate_);
    free_at_ = start + service;
    busy_ += service;
    // Busy intervals become sim-time trace spans, so PS memory/CPU and
    // NIC saturation is visible on the same timeline as the workers.
    if (obs::FlightRecorder::enabled() && service > 0) {
        auto& recorder = obs::FlightRecorder::global();
        static const uint32_t busy = recorder.internChannel("busy");
        if (track_ == ~0u)
            track_ = recorder.internSimTrack(name());
        recorder.recordSimSpan(track_, busy, start, free_at_);
    }
    return free_at_;
}

double
Resource::utilization(Tick end) const
{
    const Tick horizon = end ? end : now();
    if (horizon == 0)
        return 0.0;
    return std::min(1.0, static_cast<double>(busy_) /
        static_cast<double>(horizon));
}

LinkModel::LinkModel(EventQueue& eq, std::string name,
                     double bytes_per_second, Tick latency)
    : SimObject(eq, name), serializer_(eq, name + ".ser",
                                       bytes_per_second),
      latency_(latency)
{
}

Tick
LinkModel::transfer(double bytes)
{
    return transferAt(now(), bytes);
}

Tick
LinkModel::transferAt(Tick earliest, double bytes)
{
    return serializer_.acquireAt(earliest, bytes) + latency_;
}

} // namespace des
} // namespace recsim
