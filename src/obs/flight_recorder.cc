#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <unordered_map>

#include "util/logging.h"

namespace recsim {
namespace obs {

namespace detail {
std::atomic<bool> g_recorder_enabled{false};
} // namespace detail

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace {

constexpr std::size_t kStripes = 16;
constexpr std::size_t kDefaultCapacity = 1 << 16;
constexpr uint32_t kNoTrack = ~0u;

/** The calling thread's wall-clock track and the stripe it writes. */
struct ThreadSlot
{
    uint32_t track = kNoTrack;
    std::size_t stripe = 0;
};
thread_local ThreadSlot t_slot;

} // namespace

/**
 * One stripe: a ring written by (usually) one thread. The mutex is
 * per-stripe, so a record takes it uncontended in the common case;
 * snapshot()/size() walk all stripes.
 */
struct Stripe
{
    mutable std::mutex mutex;
    std::vector<Sample> ring;
    /** Next write position (ring.size() == capacity once full). */
    std::size_t head = 0;
    /** Retained sample count (<= stripe capacity). */
    std::size_t filled = 0;
    uint64_t written = 0;
};

struct FlightRecorder::Impl
{
    Stripe stripes[kStripes];
    std::size_t stripe_capacity = kDefaultCapacity / kStripes;
    std::atomic<uint64_t> epoch_ns{steadyNowNs()};

    /** Guards the channel and track tables. */
    mutable std::mutex names_mutex;
    std::unordered_map<std::string, uint32_t> channel_ids;
    std::vector<std::string> channel_names;
    std::unordered_map<std::string, uint32_t> sim_track_ids;
    std::vector<Track> tracks;
    std::size_t wall_tracks = 0;

    /** The calling thread's slot, registering its track on first use
     *  (the only time a thread takes names_mutex to record). */
    const ThreadSlot& threadSlot()
    {
        if (t_slot.track == kNoTrack) {
            std::lock_guard<std::mutex> lock(names_mutex);
            t_slot.track = static_cast<uint32_t>(tracks.size());
            t_slot.stripe = wall_tracks % kStripes;
            tracks.push_back(
                {"thread-" + std::to_string(wall_tracks++), false});
        }
        return t_slot;
    }

    /** Append @p sample to the calling thread's stripe. */
    void push(const Sample& sample, std::size_t stripe_index)
    {
        Stripe& stripe = stripes[stripe_index];
        const std::size_t cap = stripe_capacity;
        std::lock_guard<std::mutex> lock(stripe.mutex);
        if (stripe.ring.size() < cap) {
            // Grow lazily toward the stripe capacity: an idle stripe
            // costs nothing.
            stripe.ring.push_back(sample);
            stripe.head = stripe.ring.size() % cap;
            stripe.filled = stripe.ring.size();
        } else {
            stripe.ring[stripe.head] = sample;
            stripe.head = (stripe.head + 1) % cap;
        }
        ++stripe.written;
    }

    void clear(bool release_memory)
    {
        for (auto& stripe : stripes) {
            std::lock_guard<std::mutex> lock(stripe.mutex);
            stripe.ring.clear();
            if (release_memory)
                stripe.ring.shrink_to_fit();
            stripe.head = 0;
            stripe.filled = 0;
            stripe.written = 0;
        }
        epoch_ns.store(steadyNowNs(), std::memory_order_relaxed);
    }
};

FlightRecorder::FlightRecorder() : impl_(new Impl()) {}

FlightRecorder&
FlightRecorder::global()
{
    // Leaky singleton: worker threads may record during static
    // destruction of other objects, so the recorder is never torn down.
    static FlightRecorder* recorder = new FlightRecorder();
    return *recorder;
}

void
FlightRecorder::setEnabled(bool on)
{
    detail::g_recorder_enabled.store(on, std::memory_order_relaxed);
}

void
FlightRecorder::configure(std::size_t capacity)
{
    RECSIM_ASSERT(capacity >= kStripes,
                  "flight recorder capacity {} < {} stripes", capacity,
                  kStripes);
    impl_->clear(/*release_memory=*/true);
    impl_->stripe_capacity = capacity / kStripes;
}

std::size_t
FlightRecorder::capacity() const
{
    return impl_->stripe_capacity * kStripes;
}

std::size_t
FlightRecorder::numStripes() const
{
    return kStripes;
}

uint32_t
FlightRecorder::internChannel(const std::string& name)
{
    std::lock_guard<std::mutex> lock(impl_->names_mutex);
    const auto [it, inserted] = impl_->channel_ids.emplace(
        name, static_cast<uint32_t>(impl_->channel_names.size()));
    if (inserted)
        impl_->channel_names.push_back(name);
    return it->second;
}

std::string
FlightRecorder::channelName(uint32_t channel) const
{
    std::lock_guard<std::mutex> lock(impl_->names_mutex);
    if (channel >= impl_->channel_names.size())
        return "?";
    return impl_->channel_names[channel];
}

std::vector<std::string>
FlightRecorder::channels() const
{
    std::lock_guard<std::mutex> lock(impl_->names_mutex);
    return impl_->channel_names;
}

uint32_t
FlightRecorder::internSimTrack(const std::string& name)
{
    std::lock_guard<std::mutex> lock(impl_->names_mutex);
    const auto [it, inserted] = impl_->sim_track_ids.emplace(
        name, static_cast<uint32_t>(impl_->tracks.size()));
    if (inserted)
        impl_->tracks.push_back({name, true});
    return it->second;
}

std::vector<Track>
FlightRecorder::tracks() const
{
    std::lock_guard<std::mutex> lock(impl_->names_mutex);
    return impl_->tracks;
}

void
FlightRecorder::record(uint32_t channel, uint64_t step, double value,
                       uint32_t rows)
{
    if (!enabled())
        return;
    const ThreadSlot& slot = impl_->threadSlot();
    Sample sample;
    sample.t_ns = nowNs();
    sample.step = step;
    sample.value = value;
    sample.channel = channel;
    sample.rows = rows;
    sample.track = slot.track;
    impl_->push(sample, slot.stripe);
}

void
FlightRecorder::recordSpan(uint32_t channel, uint64_t start_ns,
                           uint64_t step, uint32_t rows)
{
    const uint64_t epoch = impl_->epoch_ns.load(std::memory_order_relaxed);
    const uint64_t end_ns = steadyNowNs();
    if (start_ns < epoch)
        return;  // Opened before the last reset().
    const ThreadSlot& slot = impl_->threadSlot();
    Sample sample;
    sample.t_ns = start_ns - epoch;
    sample.dur_ns = end_ns - start_ns;
    sample.step = step;
    sample.value = static_cast<double>(sample.dur_ns) * 1e-9;
    sample.channel = channel;
    sample.rows = rows;
    sample.track = slot.track;
    sample.span = true;
    impl_->push(sample, slot.stripe);
}

void
FlightRecorder::recordSimSpan(uint32_t track, uint32_t channel,
                              uint64_t start_ns, uint64_t end_ns)
{
    if (!enabled() || end_ns < start_ns)
        return;
    Sample sample;
    sample.t_ns = start_ns;
    sample.dur_ns = end_ns - start_ns;
    sample.value = static_cast<double>(sample.dur_ns) * 1e-9;
    sample.channel = channel;
    sample.track = track;
    sample.span = true;
    impl_->push(sample, impl_->threadSlot().stripe);
}

uint64_t
FlightRecorder::nowNs() const
{
    return steadyNowNs() -
        impl_->epoch_ns.load(std::memory_order_relaxed);
}

std::size_t
FlightRecorder::size() const
{
    std::size_t total = 0;
    for (const auto& stripe : impl_->stripes) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        total += stripe.filled;
    }
    return total;
}

uint64_t
FlightRecorder::totalRecorded() const
{
    uint64_t total = 0;
    for (const auto& stripe : impl_->stripes) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        total += stripe.written;
    }
    return total;
}

uint64_t
FlightRecorder::dropped() const
{
    uint64_t written = 0;
    std::size_t held = 0;
    for (const auto& stripe : impl_->stripes) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        written += stripe.written;
        held += stripe.filled;
    }
    return written - static_cast<uint64_t>(held);
}

std::vector<Sample>
FlightRecorder::snapshot() const
{
    std::vector<Sample> out;
    for (const auto& stripe : impl_->stripes) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        out.insert(out.end(), stripe.ring.begin(),
                   stripe.ring.begin() +
                       static_cast<std::ptrdiff_t>(stripe.filled));
    }
    std::sort(out.begin(), out.end(),
              [](const Sample& a, const Sample& b) {
                  if (a.t_ns != b.t_ns)
                      return a.t_ns < b.t_ns;
                  if (a.dur_ns != b.dur_ns)
                      return a.dur_ns > b.dur_ns;
                  if (a.step != b.step)
                      return a.step < b.step;
                  return a.channel < b.channel;
              });
    return out;
}

void
FlightRecorder::reset()
{
    impl_->clear(/*release_memory=*/false);
}

} // namespace obs
} // namespace recsim
