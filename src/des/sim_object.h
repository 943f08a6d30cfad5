/**
 * @file
 * Base class for named simulation objects plus two reusable resource
 * models every node in the training simulation is built from: a
 * serving Resource (FIFO server with a byte/flop rate) and a LinkModel
 * (bandwidth + latency pipe). Both track busy time for utilization
 * reporting.
 */
#pragma once

#include <cstdint>
#include <string>

#include "des/event_queue.h"

namespace recsim {
namespace des {

/** Named object bound to an EventQueue. */
class SimObject
{
  public:
    SimObject(EventQueue& eq, std::string name);
    virtual ~SimObject() = default;

    SimObject(const SimObject&) = delete;
    SimObject& operator=(const SimObject&) = delete;

    const std::string& name() const { return name_; }
    EventQueue& eventQueue() { return eq_; }
    Tick now() const { return eq_.now(); }

  protected:
    EventQueue& eq_;

  private:
    std::string name_;
};

/**
 * A FIFO-served resource with a fixed service rate (units/second),
 * e.g. a memory controller serving gather bytes or a CPU serving
 * flops. acquire() returns the completion tick of a request issued
 * now; requests queue behind earlier ones. Busy time accumulates for
 * utilization reporting.
 */
class Resource : public SimObject
{
  public:
    /**
     * @param rate Units per second (> 0).
     */
    Resource(EventQueue& eq, std::string name, double rate);

    /**
     * Reserve @p units starting no earlier than now; returns the tick
     * at which the request completes.
     */
    Tick acquire(double units);

    /** As acquire() but the request cannot start before @p earliest. */
    Tick acquireAt(Tick earliest, double units);

    double rate() const { return rate_; }

    /** Busy seconds accumulated so far. */
    double busySeconds() const { return ticksToSeconds(busy_); }

    /** Utilization over [0, now] (or [0, end] if given). */
    double utilization(Tick end = 0) const;

  private:
    double rate_;
    Tick free_at_ = 0;
    Tick busy_ = 0;
    /** The simulated track its busy spans land on, interned on the
     *  first one (~0u until then). */
    uint32_t track_ = ~0u;
};

/**
 * A bandwidth/latency pipe: transfer completes after queueing behind
 * earlier transfers at the link rate, plus a fixed latency.
 */
class LinkModel : public SimObject
{
  public:
    LinkModel(EventQueue& eq, std::string name, double bytes_per_second,
              Tick latency);

    /** Completion tick for @p bytes injected now. */
    Tick transfer(double bytes);

    /** As transfer() but injection cannot begin before @p earliest. */
    Tick transferAt(Tick earliest, double bytes);

    double bandwidth() const { return serializer_.rate(); }
    double busySeconds() const { return serializer_.busySeconds(); }
    double utilization(Tick end = 0) const
    {
        return serializer_.utilization(end);
    }

  private:
    Resource serializer_;
    Tick latency_;
};

} // namespace des
} // namespace recsim
