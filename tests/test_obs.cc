/**
 * @file
 * Tests for the observability layer (recsim::obs): metrics registry
 * semantics, spans as flight-recorder samples, the Chrome-trace and
 * summary views over a snapshot, and — the point of the subsystem —
 * trace-validated training loops: a traced run must record one
 * iteration span per optimizer step, forward strictly before backward,
 * one span per node visit, and one wall-clock track per Hogwild
 * worker.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "obs/drift.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/pool_metrics.h"
#include "obs/trace.h"
#include "stats/log_histogram.h"
#include "train/hogwild.h"
#include "train/step_runner.h"
#include "train/trainer.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace recsim::obs {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON well-formedness parser (objects, arrays, strings,
// numbers, literals) so the trace export is validated without external
// dependencies. Returns true iff the whole document parses.
// ---------------------------------------------------------------------

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    bool parse()
    {
        skipWs();
        if (!parseValue())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool parseValue()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{': return parseObject();
        case '[': return parseArray();
        case '"': return parseString();
        case 't': return parseLiteral("true");
        case 'f': return parseLiteral("false");
        case 'n': return parseLiteral("null");
        default: return parseNumber();
        }
    }

    bool parseObject()
    {
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!parseString())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool parseArray()
    {
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool parseString()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\\') {
                pos_ += 2;
                continue;
            }
            if (c == '"') { ++pos_; return true; }
            if (static_cast<unsigned char>(c) < 0x20)
                return false;  // raw control char: escaping bug
            ++pos_;
        }
        return false;
    }

    bool parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool parseLiteral(const char* lit)
    {
        const std::string s(lit);
        if (text_.compare(pos_, s.size(), s) != 0)
            return false;
        pos_ += s.size();
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : 0; }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

model::DlrmConfig
tinyModel()
{
    return model::DlrmConfig::tinyReplica(4, 8, 500, 8);
}

data::DatasetConfig
tinyData()
{
    const auto m = tinyModel();
    data::DatasetConfig cfg;
    cfg.num_dense = m.num_dense;
    cfg.sparse = m.sparse;
    cfg.seed = 99;
    return cfg;
}

/** Where @p sample ends on its track's clock. */
uint64_t
endNs(const Sample& sample)
{
    return sample.t_ns + sample.dur_ns;
}

#ifndef RECSIM_OBS_DISABLED
/** Wall-clock spans on channel @p name, in start order. */
std::vector<Sample>
spansNamed(const std::vector<Sample>& samples, const std::string& name)
{
    FlightRecorder& rec = FlightRecorder::global();
    const uint32_t channel = rec.internChannel(name);
    const std::vector<Track> tracks = rec.tracks();
    std::vector<Sample> result;
    for (const Sample& sample : samples) {
        if (sample.span && sample.channel == channel &&
            !tracks[sample.track].simulated)
            result.push_back(sample);
    }
    return result;
}
#endif  // RECSIM_OBS_DISABLED

/** Span samples among @p samples. */
std::size_t
countSpans(const std::vector<Sample>& samples)
{
    return static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [](const Sample& s) { return s.span; }));
}

class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FlightRecorder& rec = FlightRecorder::global();
        rec.setEnabled(false);
        rec.configure(1 << 16);
        MetricsRegistry::global().reset();
        rec.setEnabled(true);
    }

    void TearDown() override
    {
        FlightRecorder& rec = FlightRecorder::global();
        rec.setEnabled(false);
        rec.reset();
        MetricsRegistry::global().reset();
    }
};

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST_F(ObsTest, MetricsCountersGaugesTimings)
{
    auto& metrics = MetricsRegistry::global();
    metrics.incr("requests");
    metrics.incr("requests", 4);
    EXPECT_EQ(metrics.counter("requests"), 5u);
    EXPECT_EQ(metrics.counter("missing"), 0u);

    metrics.set("queue_depth", 7.5);
    metrics.set("queue_depth", 3.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("queue_depth"), 3.0);

    metrics.observe("latency", 1.0);
    metrics.observe("latency", 3.0);
    const auto stat = metrics.timing("latency");
    EXPECT_EQ(stat.count(), 2u);
    EXPECT_DOUBLE_EQ(stat.mean(), 2.0);

    const std::string report = metrics.report();
    EXPECT_NE(report.find("requests"), std::string::npos);
    EXPECT_NE(report.find("latency"), std::string::npos);

    metrics.reset();
    EXPECT_EQ(metrics.counter("requests"), 0u);
    EXPECT_EQ(metrics.size(), 0u);
}

// ---------------------------------------------------------------------
// Spans: one sample per closed span
// ---------------------------------------------------------------------

TEST_F(ObsTest, SpansBalanceAndNest)
{
    FlightRecorder& rec = FlightRecorder::global();
    const uint32_t outer_ch = rec.internChannel("outer");
    const uint32_t inner_ch = rec.internChannel("inner");
    {
        TraceSpan outer(outer_ch, 3, 64);
        { TraceSpan inner(inner_ch); }
        // A span records when it closes, so only the inner one is in.
        EXPECT_EQ(rec.size(), 1u);
    }

    const auto samples = rec.snapshot();
    ASSERT_EQ(samples.size(), 2u);
    // Start order puts the enclosing span first; both sit on this
    // thread's wall-clock track, and the outer one contains the inner.
    const Sample& outer = samples[0];
    const Sample& inner = samples[1];
    EXPECT_EQ(outer.channel, outer_ch);
    EXPECT_EQ(inner.channel, inner_ch);
    EXPECT_TRUE(outer.span && inner.span);
    EXPECT_EQ(outer.track, inner.track);
    EXPECT_FALSE(rec.tracks()[outer.track].simulated);
    EXPECT_LE(outer.t_ns, inner.t_ns);
    EXPECT_GE(endNs(outer), endNs(inner));
    EXPECT_EQ(outer.step, 3u);
    EXPECT_EQ(outer.rows, 64u);
    // A span's value is its duration in seconds.
    EXPECT_DOUBLE_EQ(outer.value, static_cast<double>(outer.dur_ns) * 1e-9);
}

TEST_F(ObsTest, DisabledPathEmitsNothing)
{
    FlightRecorder& rec = FlightRecorder::global();
    rec.setEnabled(false);
    const uint32_t ch = rec.internChannel("ignored");
    {
        TraceSpan span(ch);
        RECSIM_TRACE_SPAN("also_ignored");
        // Turning recording on does not arm a span opened while off.
        rec.setEnabled(true);
    }
    rec.setEnabled(false);
    rec.record(ch, 0, 1.0);
    rec.recordSimSpan(rec.internSimTrack("node"), ch, 10, 20);
    EXPECT_EQ(rec.totalRecorded(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
}

TEST_F(ObsTest, ResetClearsEverything)
{
    FlightRecorder& rec = FlightRecorder::global();
    const uint32_t work = rec.internChannel("work");
    { TraceSpan span(work); }
    rec.recordSimSpan(rec.internSimTrack("node"), rec.internChannel("busy"),
                      0, 5);
    rec.record(work, 0, 1.0);
    EXPECT_EQ(rec.size(), 3u);

    {
        // A span open across a reset belongs to neither epoch.
        TraceSpan straddling(work);
        rec.reset();
    }
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.totalRecorded(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());

    // The recorder stays usable after reset, and this thread keeps its
    // track.
    const uint32_t track = [&] {
        { TraceSpan span(work); }
        return rec.snapshot().at(0).track;
    }();
    EXPECT_EQ(rec.size(), 1u);
    { TraceSpan span(work); }
    EXPECT_EQ(rec.snapshot().at(1).track, track);
}

TEST_F(ObsTest, SimSpansLandOnSimulatedTracks)
{
    FlightRecorder& rec = FlightRecorder::global();
    const uint32_t cpu = rec.internSimTrack("trainer0.cpu");
    const uint32_t nic = rec.internSimTrack("ps0.nic");
    const uint32_t busy = rec.internChannel("busy");
    EXPECT_NE(cpu, nic);
    EXPECT_EQ(rec.internSimTrack("trainer0.cpu"), cpu);
    rec.recordSimSpan(cpu, busy, 1000, 3000);
    rec.recordSimSpan(cpu, busy, 3000, 4000);
    rec.recordSimSpan(nic, busy, 500, 1500);
    { TraceSpan wall(busy); }

    const auto tracks = rec.tracks();
    EXPECT_EQ(tracks[cpu].name, "trainer0.cpu");
    EXPECT_EQ(tracks[nic].name, "ps0.nic");
    std::vector<uint32_t> sim_tracks;
    std::size_t wall = 0;
    for (const Sample& sample : rec.snapshot()) {
        ASSERT_TRUE(sample.span);
        EXPECT_EQ(sample.channel, busy);
        if (!tracks[sample.track].simulated) {
            ++wall;
            continue;
        }
        sim_tracks.push_back(sample.track);
        EXPECT_LT(sample.t_ns, endNs(sample));
    }
    EXPECT_EQ(wall, 1u);
    // Sim-clock timestamps are kept as given: the earliest span is the
    // NIC's [500, 1500].
    EXPECT_EQ(sim_tracks, (std::vector<uint32_t>{nic, cpu, cpu}));
}

// ---------------------------------------------------------------------
// Views: the Chrome trace and the summary
// ---------------------------------------------------------------------

TEST_F(ObsTest, ChromeTraceJsonParsesAndCarriesBothTimelines)
{
    FlightRecorder& rec = FlightRecorder::global();
    {
        // Exercises escaping.
        TraceSpan span(rec.internChannel("wall \"work\"\n"));
    }
    rec.recordSimSpan(rec.internSimTrack("trainer0.cpu"),
                      rec.internChannel("busy"), 1000, 2000);
    // A value is not a span, so the trace leaves it out.
    rec.record(rec.internChannel("test.value_only"), 0, 1.0);

    const std::string json = chromeTraceJson(rec, rec.snapshot());
    EXPECT_TRUE(JsonParser(json).parse()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("recsim wall clock"), std::string::npos);
    EXPECT_NE(json.find("recsim simulated time"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":1"), std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"busy\",\"ph\":\"X\",\"pid\":2"),
              std::string::npos);
    // Sim-clock nanoseconds print as microseconds.
    EXPECT_NE(json.find("\"ts\":1.000,\"dur\":1.000"), std::string::npos);
    EXPECT_EQ(json.find("test.value_only"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
    // The raw newline and quote must have been escaped.
    EXPECT_NE(json.find("wall \\\"work\\\"\\n"), std::string::npos);
}

TEST_F(ObsTest, SummaryAttributesTime)
{
    FlightRecorder& rec = FlightRecorder::global();
    {
        TraceSpan top(rec.internChannel("top"));
        TraceSpan inner(rec.internChannel("inner"));
    }
    rec.recordSimSpan(rec.internSimTrack("node0"),
                      rec.internChannel("busy"), 0, 1000000);
    const std::string summary = obs::summary(rec, rec.snapshot());
    // Per-name totals, wall and simulated apart: one busy span of one
    // sim-millisecond.
    EXPECT_NE(summary.find("top"), std::string::npos);
    EXPECT_NE(summary.find("inner"), std::string::npos);
    EXPECT_NE(summary.find("1.000 sim-ms"), std::string::npos);
    // Per-track attribution: the top-level span covers its track's
    // whole interval, the nested one adds nothing.
    EXPECT_NE(summary.find("100.0% attributed"), std::string::npos);
    EXPECT_NE(summary.find("recorder: 3 samples, 0 dropped"),
              std::string::npos);
}

TEST_F(ObsTest, SmallRecorderReportsDroppedInBothViews)
{
    // A recorder too small for a traced training run keeps the newest
    // samples and says how many it lost.
    FlightRecorder& rec = FlightRecorder::global();
    rec.configure(8 * rec.numStripes());
    rec.setEnabled(true);
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(8 * 64 + 256);
    train::TrainConfig cfg;
    cfg.batch_size = 64;
    cfg.epochs = 1;
    train::trainSingleThread(tinyModel(), ds, cfg, 256);
    rec.setEnabled(false);

    const uint64_t dropped = rec.dropped();
    ASSERT_GT(dropped, 0u);
    const auto samples = rec.snapshot();
    EXPECT_EQ(dropped, rec.totalRecorded() - samples.size());
    EXPECT_NE(obs::summary(rec, samples)
                  .find(std::to_string(dropped) + " dropped"),
              std::string::npos);
    const std::string json = chromeTraceJson(rec, samples);
    EXPECT_TRUE(JsonParser(json).parse());
    EXPECT_NE(json.find("\"dropped\":" + std::to_string(dropped)),
              std::string::npos);
}

TEST_F(ObsTest, SerialStepRecordsOneSpanPerNodeVisit)
{
    const auto cfg = tinyModel();
    const graph::StepGraph graph = graph::buildModelStepGraph(cfg);
    const auto executor = train::GraphExecutor::serial(graph);
    model::Dlrm model(cfg, 1);
    data::SyntheticCtrDataset ds(tinyData());
    const data::MiniBatch batch = ds.nextBatch(32);

    FlightRecorder& rec = FlightRecorder::global();
    executor.runStep(model, batch);
    rec.setEnabled(false);
    const auto samples = rec.snapshot();
    const auto names = rec.channels();

    // Each executable node records its forward and its backward visit,
    // and nothing records a nested nn.* span.
    std::map<std::string, std::vector<Sample>> by_name;
    for (const Sample& sample : samples) {
        EXPECT_TRUE(sample.span);
        by_name[names[sample.channel]].push_back(sample);
    }
    std::multiset<std::string> expected_events;
    std::set<std::string> executable;
    for (const graph::Node& node : graph.nodes) {
        if (node.kind != graph::NodeKind::Gemm &&
            node.kind != graph::NodeKind::EmbeddingLookup &&
            node.kind != graph::NodeKind::Interaction)
            continue;
        executable.insert(node.id);
        const auto& visits = by_name[node.id];
        ASSERT_EQ(visits.size(), 2u) << node.id;
        for (const Sample& visit : visits) {
            EXPECT_EQ(visit.rows, 32u) << node.id;
            expected_events.insert(util::format(
                "{} {} {}", node.id,
                util::fixed(static_cast<double>(visit.t_ns) / 1000.0, 3),
                util::fixed(static_cast<double>(visit.dur_ns) / 1000.0,
                            3)));
        }
    }
    EXPECT_FALSE(executable.empty());
    for (const auto& [name, list] : by_name)
        EXPECT_NE(name.rfind("nn.", 0), 0u) << name;

    // The Chrome trace of the same snapshot holds exactly those node
    // spans, with the same starts and durations.
    const std::string json = chromeTraceJson(rec, samples);
    std::multiset<std::string> node_events;
    std::size_t pos = 0;
    while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
        pos += 9;
        const std::string name = json.substr(pos, json.find('"', pos) - pos);
        const std::size_t line_end = json.find('\n', pos);
        const std::string line = json.substr(pos, line_end - pos);
        const std::size_t ts = line.find("\"ts\":");
        const std::size_t dur = line.find(",\"dur\":");
        if (ts == std::string::npos || !executable.count(name))
            continue;
        node_events.insert(util::format(
            "{} {} {}", name, line.substr(ts + 5, dur - ts - 5),
            line.substr(dur + 7, line.find('}', dur) - dur - 7)));
    }
    EXPECT_EQ(node_events, expected_events);
}

// ---------------------------------------------------------------------
// Trace-validated training loops
// ---------------------------------------------------------------------

#ifndef RECSIM_OBS_DISABLED
// The two loop-tracing tests assert on spans emitted through the
// RECSIM_TRACE_SPAN macro, which compiles to nothing in obs-disabled
// builds — there is deliberately nothing to observe there.

TEST_F(ObsTest, SingleThreadTrainingLoopIsFullyTraced)
{
    constexpr std::size_t kBatch = 64;
    constexpr std::size_t kEval = 256;
    constexpr std::size_t kSteps = 12;
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(kSteps * kBatch + kEval);
    train::TrainConfig cfg;
    cfg.batch_size = kBatch;
    cfg.epochs = 1;
    train::trainSingleThread(tinyModel(), ds, cfg, kEval);

    const auto samples = FlightRecorder::global().snapshot();
    EXPECT_EQ(FlightRecorder::global().dropped(), 0u);

    // Exactly one iteration span per optimizer step, tagged with its
    // step and rows.
    const auto iterations = spansNamed(samples, "train.iteration");
    ASSERT_EQ(iterations.size(), kSteps);
    for (std::size_t i = 0; i < kSteps; ++i) {
        EXPECT_EQ(iterations[i].step, i);
        EXPECT_EQ(iterations[i].rows, kBatch);
    }
    EXPECT_EQ(MetricsRegistry::global().counter("train.iterations"),
              static_cast<uint64_t>(kSteps));
    EXPECT_EQ(
        MetricsRegistry::global().timing("train.iteration_seconds")
            .count(),
        kSteps);

    // Every iteration carries data / fwd_bwd / optimizer phases, and
    // within the model, forward strictly precedes backward.
    const auto data_spans = spansNamed(samples, "train.data");
    const auto fwd_bwd = spansNamed(samples, "train.fwd_bwd");
    const auto opt = spansNamed(samples, "train.optimizer");
    EXPECT_EQ(data_spans.size(), kSteps);
    EXPECT_EQ(fwd_bwd.size(), kSteps);
    EXPECT_EQ(opt.size(), kSteps);

    const auto fwd = spansNamed(samples, "model.fwd");
    const auto bwd = spansNamed(samples, "model.bwd");
    // Forward also runs during evaluation, so fwd >= bwd == steps.
    ASSERT_EQ(bwd.size(), kSteps);
    ASSERT_GE(fwd.size(), kSteps);
    for (std::size_t i = 0; i < kSteps; ++i) {
        // The i-th training forward ends before the i-th backward
        // begins, and both nest inside the i-th iteration span.
        EXPECT_LE(endNs(fwd[i]), bwd[i].t_ns);
        EXPECT_GE(fwd[i].t_ns, iterations[i].t_ns);
        EXPECT_LE(endNs(bwd[i]), endNs(iterations[i]));
    }

    // Phases tile the iteration: data before fwd_bwd before optimizer.
    for (std::size_t i = 0; i < kSteps; ++i) {
        EXPECT_LE(endNs(data_spans[i]), fwd_bwd[i].t_ns);
        EXPECT_LE(endNs(fwd_bwd[i]), opt[i].t_ns);
    }
}

TEST_F(ObsTest, HogwildWorkersGetTheirOwnTracks)
{
    constexpr std::size_t kThreads = 3;
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(4096);
    train::HogwildConfig cfg;
    cfg.num_threads = kThreads;
    cfg.base.batch_size = 64;
    cfg.base.epochs = 1;
    train::trainHogwild(tinyModel(), ds, cfg, 1024);

    // Each worker thread records its iterations on a distinct track,
    // together with its own node spans: the serial executor runs every
    // node on the calling worker, so bottom_mlp.l0 shows up twice per
    // iteration (forward and backward) on that worker's track.
    FlightRecorder& rec = FlightRecorder::global();
    const uint32_t iteration = rec.internChannel("hogwild.iteration");
    const uint32_t l0 = rec.internChannel("bottom_mlp.l0");
    const auto samples = rec.snapshot();
    EXPECT_EQ(rec.dropped(), 0u);
    std::map<uint32_t, std::pair<std::size_t, std::size_t>> per_track;
    for (const Sample& sample : samples) {
        if (sample.channel == iteration)
            ++per_track[sample.track].first;
        else if (sample.channel == l0)
            ++per_track[sample.track].second;
    }
    std::size_t worker_tracks = 0;
    std::size_t total_iterations = 0;
    for (const auto& [track, counts] : per_track) {
        const auto [iters, l0_visits] = counts;
        if (iters > 0) {
            ++worker_tracks;
            total_iterations += iters;
            EXPECT_EQ(l0_visits, 2 * iters) << "track " << track;
        }
    }
    EXPECT_EQ(worker_tracks, kThreads);
    EXPECT_EQ(
        MetricsRegistry::global().counter("hogwild.iterations"),
        static_cast<uint64_t>(total_iterations));

    // The export of a genuinely multi-threaded trace still parses.
    EXPECT_TRUE(JsonParser(chromeTraceJson(rec, samples)).parse());
}

#endif  // RECSIM_OBS_DISABLED

TEST_F(ObsTest, ConcurrentSpansFromManyThreadsStayBalanced)
{
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    FlightRecorder& rec = FlightRecorder::global();
    const uint32_t outer = rec.internChannel("outer");
    const uint32_t inner = rec.internChannel("inner");
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([outer, inner] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                TraceSpan o(outer);
                TraceSpan n(inner);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();

    const auto samples = rec.snapshot();
    EXPECT_EQ(rec.totalRecorded(),
              static_cast<uint64_t>(kThreads) * kSpansPerThread * 2);
    EXPECT_EQ(countSpans(samples),
              static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
    // One track per thread, each with all of its thread's spans.
    std::map<uint32_t, std::size_t> per_track;
    for (const Sample& sample : samples)
        ++per_track[sample.track];
    EXPECT_EQ(per_track.size(), static_cast<std::size_t>(kThreads));
    for (const auto& [track, n] : per_track)
        EXPECT_EQ(n, static_cast<std::size_t>(kSpansPerThread) * 2);
    EXPECT_TRUE(JsonParser(chromeTraceJson(rec, samples)).parse());
}

TEST_F(ObsTest, ReadersRacingWritersSeeConsistentState)
{
    // The executor's worker threads record spans while other code (the
    // drift monitor, a trace dump) reads the recorder concurrently.
    // Run writers and readers together — under TSan this is the data-
    // race proof for the span path; everywhere else it checks the
    // reader only ever sees complete spans.
    constexpr int kWriters = 4;
    constexpr int kSpansPerWriter = 300;
    FlightRecorder& rec = FlightRecorder::global();
    const uint32_t outer = rec.internChannel("outer");
    const uint32_t inner = rec.internChannel("inner");
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
        threads.emplace_back([outer, inner] {
            for (int i = 0; i < kSpansPerWriter; ++i) {
                TraceSpan o(outer);
                TraceSpan n(inner);
            }
        });
    }
    threads.emplace_back([&rec] {
        for (int i = 0; i < 50; ++i) {
            for (const Sample& sample : rec.snapshot()) {
                // A recorded span is always finished.
                EXPECT_TRUE(sample.span);
                EXPECT_DOUBLE_EQ(sample.value,
                                 static_cast<double>(sample.dur_ns) *
                                     1e-9);
            }
            (void)rec.size();
            (void)rec.tracks();
        }
    });
    for (auto& thread : threads)
        thread.join();

    EXPECT_EQ(countSpans(rec.snapshot()),
              static_cast<std::size_t>(kWriters) * kSpansPerWriter * 2);
}

// ---------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------

class FlightRecorderTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        auto& rec = FlightRecorder::global();
        rec.setEnabled(false);
        rec.configure(1024);
    }

    void TearDown() override
    {
        auto& rec = FlightRecorder::global();
        rec.setEnabled(false);
        rec.reset();
    }
};

TEST_F(FlightRecorderTest, DisabledRecordIsDroppedBeforeAnyWork)
{
    auto& rec = FlightRecorder::global();
    const uint32_t ch = rec.internChannel("test.disabled");
    rec.record(ch, 0, 1.0);
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.totalRecorded(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
}

TEST_F(FlightRecorderTest, SamplesRoundTripThroughSnapshot)
{
    auto& rec = FlightRecorder::global();
    rec.setEnabled(true);
    const uint32_t a = rec.internChannel("test.chan_a");
    const uint32_t b = rec.internChannel("test.chan_b");
    rec.record(a, 7, 0.5, 64);
    rec.record(b, 7, 2.5);
    rec.record(a, 8, 1.5, 32);
    rec.setEnabled(false);

    EXPECT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.totalRecorded(), 3u);
    EXPECT_EQ(rec.dropped(), 0u);

    const auto samples = rec.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    // Sorted by (t_ns, step, channel); the tiebreak keys increase in
    // record order here, so the single-writer order is preserved.
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_GE(samples[i].t_ns, samples[i - 1].t_ns);
    EXPECT_EQ(samples[0].channel, a);
    EXPECT_EQ(samples[0].step, 7u);
    EXPECT_EQ(samples[0].rows, 64u);
    EXPECT_DOUBLE_EQ(samples[0].value, 0.5);
    EXPECT_EQ(samples[1].channel, b);
    EXPECT_EQ(samples[1].rows, 0u);
    EXPECT_DOUBLE_EQ(samples[2].value, 1.5);
}

TEST_F(FlightRecorderTest, RingOverwriteKeepsNewestAndCountsDropped)
{
    auto& rec = FlightRecorder::global();
    const std::size_t per_stripe = 2;
    rec.configure(per_stripe * rec.numStripes());
    rec.setEnabled(true);
    const uint32_t ch = rec.internChannel("test.ring");
    for (int i = 0; i < 10; ++i)
        rec.record(ch, static_cast<uint64_t>(i),
                   static_cast<double>(i));
    rec.setEnabled(false);

    // A single writer thread lands on one stripe, so retention is the
    // per-stripe share of the configured capacity.
    EXPECT_EQ(rec.size(), per_stripe);
    EXPECT_EQ(rec.totalRecorded(), 10u);
    EXPECT_EQ(rec.dropped(), 10u - per_stripe);

    const auto samples = rec.snapshot();
    ASSERT_EQ(samples.size(), per_stripe);
    EXPECT_DOUBLE_EQ(samples[0].value, 8.0);
    EXPECT_DOUBLE_EQ(samples[1].value, 9.0);
}

TEST_F(FlightRecorderTest, ChannelIdsAreDenseStableAndSurviveReset)
{
    auto& rec = FlightRecorder::global();
    const uint32_t a = rec.internChannel("test.stable_a");
    const uint32_t b = rec.internChannel("test.stable_b");
    EXPECT_NE(a, b);
    EXPECT_EQ(rec.internChannel("test.stable_a"), a);
    EXPECT_EQ(rec.channelName(a), "test.stable_a");
    const auto names = rec.channels();
    ASSERT_GT(names.size(), std::max(a, b));
    EXPECT_EQ(names[a], "test.stable_a");
    EXPECT_EQ(names[b], "test.stable_b");

    rec.reset();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.totalRecorded(), 0u);
    EXPECT_EQ(rec.internChannel("test.stable_a"), a);
    EXPECT_EQ(rec.channelName(b), "test.stable_b");
    EXPECT_EQ(rec.channelName(0xffffffffu), "?");
}

TEST_F(FlightRecorderTest, ConcurrentWritersAndReadersStayConsistent)
{
    auto& rec = FlightRecorder::global();
    rec.configure(1 << 16);
    rec.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    const uint32_t ch = rec.internChannel("test.concurrent");
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&rec, ch, t] {
            for (int i = 0; i < kPerThread; ++i)
                rec.record(ch, static_cast<uint64_t>(t), 1.0);
        });
    }
    // A racing reader: under TSan this is the data-race proof for the
    // striped snapshot path.
    threads.emplace_back([&rec] {
        for (int i = 0; i < 50; ++i) {
            const auto samples = rec.snapshot();
            EXPECT_LE(samples.size(), rec.capacity());
            (void)rec.size();
            (void)rec.dropped();
        }
    });
    for (auto& thread : threads)
        thread.join();
    rec.setEnabled(false);

    // Capacity exceeds the offered volume, so nothing is dropped.
    EXPECT_EQ(rec.totalRecorded(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(rec.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    EXPECT_EQ(rec.dropped(), 0u);
    EXPECT_EQ(rec.snapshot().size(), rec.size());
}

// ---------------------------------------------------------------------
// DriftMonitor
// ---------------------------------------------------------------------

TEST(DriftMonitorTest, FlagsOnlyTheDriftedNode)
{
    DriftMonitor monitor({{"mlp", 1e-3}, {"emb", 2e-3}});
    for (int i = 0; i < 5; ++i) {
        monitor.observeNode("mlp", 1e-3);  // ratio 1.0
        monitor.observeNode("emb", 6e-3);  // ratio 3.0
    }
    const DriftReport report = monitor.report();
    ASSERT_EQ(report.nodes.size(), 2u);
    // Prediction order: node ids sorted.
    EXPECT_EQ(report.nodes[0].node_id, "emb");
    EXPECT_EQ(report.nodes[1].node_id, "mlp");
    EXPECT_TRUE(report.nodes[0].flagged);
    EXPECT_NEAR(report.nodes[0].ratio, 3.0, 1e-9);
    EXPECT_FALSE(report.nodes[1].flagged);
    EXPECT_EQ(report.flaggedNodes(),
              (std::vector<std::string>{"emb"}));
    EXPECT_NEAR(report.worst_abs_log_ratio, std::log(3.0), 1e-9);
}

TEST(DriftMonitorTest, TooFewSamplesNeverFlag)
{
    DriftConfig config;
    config.min_samples = 3;
    DriftMonitor monitor({{"mlp", 1e-3}}, config);
    monitor.observeNode("mlp", 9e-3);
    monitor.observeNode("mlp", 9e-3);
    const DriftReport report = monitor.report();
    ASSERT_EQ(report.nodes.size(), 1u);
    EXPECT_FALSE(report.nodes[0].flagged);
    EXPECT_EQ(report.nodes[0].samples, 2u);
    EXPECT_DOUBLE_EQ(report.nodes[0].ratio, 0.0);
    EXPECT_DOUBLE_EQ(report.worst_abs_log_ratio, 0.0);
}

TEST(DriftMonitorTest, FasterThanPredictedAlsoFlags)
{
    DriftMonitor monitor({{"mlp", 1e-3}});
    for (int i = 0; i < 4; ++i)
        monitor.observeNode("mlp", 0.5e-3);  // ratio 0.5 < 1/1.5
    const DriftReport report = monitor.report();
    EXPECT_EQ(report.flaggedNodes(),
              (std::vector<std::string>{"mlp"}));
}

TEST(DriftMonitorTest, StragglerStepsFlagAgainstRollingMedian)
{
    DriftConfig config;
    config.median_window = 8;
    config.warmup_steps = 4;
    DriftMonitor monitor({}, config);
    for (uint64_t step = 0; step < 20; ++step) {
        double seconds = 1e-3;
        // Two spikes: one inside the warmup (never flagged), one in
        // steady state.
        if (step == 2 || step == 12)
            seconds = 5e-3;
        monitor.observeStep(step, seconds);
    }
    const DriftReport report = monitor.report();
    EXPECT_EQ(report.steps_observed, 20u);
    ASSERT_EQ(report.stragglers.size(), 1u);
    EXPECT_EQ(report.stragglers[0].step, 12u);
    EXPECT_NEAR(report.stragglers[0].median_s, 1e-3, 1e-12);
    EXPECT_NEAR(report.stragglers[0].ratio, 5.0, 1e-9);
}

TEST_F(FlightRecorderTest, DriftIngestSumsNodeSpansPerStep)
{
    auto& rec = FlightRecorder::global();
    rec.setEnabled(true);
    const uint32_t node = rec.internChannel("test_node.l0");
    const uint32_t step_ch = rec.internChannel("train.iteration");
    const uint32_t other = rec.internChannel("test.unrelated");
    const uint32_t sim_track = rec.internSimTrack("test.sim_worker");
    for (uint64_t step = 0; step < 5; ++step) {
        rec.record(node, step, 0.4e-3);  // forward visit
        rec.record(node, step, 0.6e-3);  // backward visit
        rec.record(step_ch, step, 2e-3);
        rec.record(other, step, 42.0);
        // A simulated span on the node's channel is not a measurement.
        rec.recordSimSpan(sim_track, node, 0, 50000000);
    }
    rec.setEnabled(false);

    DriftMonitor monitor({{"test_node.l0", 1e-3}});
    monitor.ingest(rec, rec.snapshot());
    const DriftReport report = monitor.report();
    EXPECT_EQ(report.steps_observed, 5u);
    ASSERT_EQ(report.nodes.size(), 1u);
    // The two visits per step sum to the whole-iteration node time,
    // matching the cost model's prediction granularity: one aggregated
    // sample per step and a ratio of exactly 1.
    EXPECT_EQ(report.nodes[0].samples, 5u);
    EXPECT_NEAR(report.nodes[0].ratio, 1.0, 1e-9);
    EXPECT_FALSE(report.nodes[0].flagged);
    EXPECT_TRUE(report.flaggedNodes().empty());
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

TEST_F(ObsTest, PrometheusNameSanitizes)
{
    EXPECT_EQ(prometheusName("train.step_s"), "recsim_train_step_s");
    EXPECT_EQ(prometheusName("serve/latency-p99"),
              "recsim_serve_latency_p99");
    EXPECT_EQ(prometheusName("ok_name:sub"), "recsim_ok_name:sub");
}

TEST_F(ObsTest, PrometheusTextExposesAllMetricKinds)
{
    auto& metrics = MetricsRegistry::global();
    metrics.incr("serve.requests", 5);
    metrics.set("queue.depth", 2.5);
    metrics.observe("step.latency", 1.0);
    metrics.observe("step.latency", 3.0);

    const std::string text = prometheusText(metrics);
    EXPECT_NE(text.find("# TYPE recsim_serve_requests counter\n"
                        "recsim_serve_requests 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE recsim_queue_depth gauge\n"
                        "recsim_queue_depth 2.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("recsim_step_latency_count 2"),
              std::string::npos);
    EXPECT_NE(text.find("recsim_step_latency_sum 4"),
              std::string::npos);
    EXPECT_NE(text.find("recsim_step_latency_min 1"),
              std::string::npos);
    EXPECT_NE(text.find("recsim_step_latency_max 3"),
              std::string::npos);
}

TEST_F(ObsTest, PrometheusHistogramBucketsAreCumulative)
{
    stats::LogHistogram hist(0.01, 1e-6, 10.0);
    for (const double v : {0.001, 0.001, 0.002, 0.5, 0.5})
        hist.add(v);

    const std::string text =
        prometheusHistogram("serve.latency_s", hist.snapshot());
    EXPECT_NE(text.find("# TYPE recsim_serve_latency_s histogram"),
              std::string::npos);
    EXPECT_NE(text.find("recsim_serve_latency_s_count 5"),
              std::string::npos);
    EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 5"), std::string::npos);

    // le-labelled bucket counts are cumulative: nondecreasing, ending
    // at the total count.
    uint64_t prev = 0;
    std::size_t buckets = 0;
    std::size_t pos = 0;
    while ((pos = text.find("\"} ", pos)) != std::string::npos) {
        pos += 3;
        const uint64_t cum = std::stoull(text.substr(pos));
        EXPECT_GE(cum, prev);
        prev = cum;
        ++buckets;
    }
    EXPECT_GE(buckets, 3u);  // two distinct value buckets plus +Inf
    EXPECT_EQ(prev, 5u);
}

TEST_F(ObsTest, TelemetryJsonLineParsesWithRequiredFields)
{
    auto& metrics = MetricsRegistry::global();
    metrics.incr("train.iterations", 3);
    metrics.set("queue.depth", 1.5);
    metrics.observe("step.latency", 0.25);

    stats::WindowedHistogram latency(1.0);
    latency.add(0.1, 0.02);
    latency.add(0.2, 0.04);

    const std::string line = telemetryJsonLine(
        7, 1.25, metrics, FlightRecorder::global(), &latency);
    EXPECT_TRUE(JsonParser(line).parse()) << line;
    EXPECT_NE(line.find("\"seq\": 7"), std::string::npos);
    EXPECT_NE(line.find("\"t_s\": 1.25"), std::string::npos);
    for (const char* field :
         {"\"pool\"", "\"recorder\"", "\"counters\"", "\"gauges\"",
          "\"timings\"", "\"latency\"", "\"threads\"", "\"capacity\"",
          "\"p99_s\""})
        EXPECT_NE(line.find(field), std::string::npos) << field;
    EXPECT_NE(line.find("\"train.iterations\": 3"),
              std::string::npos);

    // Without a latency source the latency block is omitted.
    const std::string bare = telemetryJsonLine(
        8, 2.5, metrics, FlightRecorder::global(), nullptr);
    EXPECT_TRUE(JsonParser(bare).parse());
    EXPECT_EQ(bare.find("\"latency\""), std::string::npos);
}

TEST_F(ObsTest, PeriodicSamplerManualPumpIsDeterministic)
{
    PeriodicSampler::Config config;
    config.interval_s = 3600.0;  // never fires on its own
    PeriodicSampler sampler(config);
    sampler.sampleOnce();
    MetricsRegistry::global().incr("pump.ticks");
    sampler.sampleOnce();
    sampler.sampleOnce();

    const auto lines = sampler.lines();
    ASSERT_EQ(lines.size(), 3u);
    double prev_t = -1.0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_TRUE(JsonParser(lines[i]).parse()) << lines[i];
        EXPECT_NE(lines[i].find("\"seq\": " + std::to_string(i)),
                  std::string::npos);
        const std::size_t pos = lines[i].find("\"t_s\": ");
        ASSERT_NE(pos, std::string::npos);
        const double t =
            std::stod(lines[i].substr(pos + std::strlen("\"t_s\": ")));
        EXPECT_GE(t, prev_t);
        prev_t = t;
    }
    // Registry traffic between pumps shows up in later lines only.
    EXPECT_EQ(lines[0].find("pump.ticks"), std::string::npos);
    EXPECT_NE(lines[2].find("\"pump.ticks\": 1"), std::string::npos);
}

TEST_F(ObsTest, PeriodicSamplerWritesJsonlFile)
{
    const std::string path = "test_obs_sampler.jsonl";
    {
        PeriodicSampler::Config config;
        config.interval_s = 3600.0;
        config.jsonl_path = path;
        PeriodicSampler sampler(config);
        sampler.sampleOnce();
        sampler.sampleOnce();
        // The destructor flushes to jsonl_path.
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t count = 0;
    while (std::getline(in, line)) {
        EXPECT_TRUE(JsonParser(line).parse()) << line;
        ++count;
    }
    EXPECT_EQ(count, 2u);
    std::remove(path.c_str());
}

TEST_F(ObsTest, PeriodicSamplerBackgroundThreadStartsAndStops)
{
    PeriodicSampler::Config config;
    config.interval_s = 0.005;
    PeriodicSampler sampler(config);
    sampler.start();
    sampler.start();  // idempotent
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    sampler.stop();
    sampler.stop();  // idempotent
    const auto lines = sampler.lines();
    // stop() takes a final sample, so at least one line exists even on
    // a loaded machine.
    EXPECT_GE(lines.size(), 1u);
    for (const auto& line : lines)
        EXPECT_TRUE(JsonParser(line).parse());
}

// ---------------------------------------------------------------------
// Thread-pool metrics bridge
// ---------------------------------------------------------------------

TEST_F(ObsTest, PoolDeltaSubtractsFieldwiseAndPublishes)
{
    PoolSnapshot before;
    before.threads = 4;
    before.jobs = 10;
    before.tasks = 100;
    before.idle_ns = 1000;
    PoolSnapshot after;
    after.threads = 4;
    after.jobs = 15;
    after.tasks = 160;
    after.idle_ns = 2500;
    const PoolSnapshot delta = poolDelta(before, after);
    EXPECT_EQ(delta.threads, 4u);
    EXPECT_EQ(delta.jobs, 5u);
    EXPECT_EQ(delta.tasks, 60u);
    EXPECT_EQ(delta.idle_ns, 1500u);

    publishThreadPoolMetrics("test.pool", delta);
    auto& metrics = MetricsRegistry::global();
    EXPECT_DOUBLE_EQ(metrics.gauge("test.pool.threads"), 4.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("test.pool.jobs"), 5.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("test.pool.tasks"), 60.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("test.pool.idle_ns"), 1500.0);
}

TEST_F(ObsTest, PoolSnapshotTracksGlobalPoolMonotonically)
{
    const PoolSnapshot before = snapshotThreadPool();
    std::atomic<std::size_t> touched{0};
    util::globalThreadPool().parallelFor(
        0, 256, 16, [&touched](std::size_t lo, std::size_t hi) {
            touched.fetch_add(hi - lo, std::memory_order_relaxed);
        });
    EXPECT_EQ(touched.load(), 256u);
    const PoolSnapshot after = snapshotThreadPool();
    EXPECT_EQ(after.threads, before.threads);
    EXPECT_GE(after.jobs, before.jobs);
    EXPECT_GE(after.tasks, before.tasks);
    EXPECT_GE(after.idle_ns, before.idle_ns);

    publishThreadPoolMetrics();
    EXPECT_DOUBLE_EQ(MetricsRegistry::global().gauge("pool.threads"),
                     static_cast<double>(after.threads));
}

// ---------------------------------------------------------------------
// MetricsRegistry striping
// ---------------------------------------------------------------------

TEST_F(ObsTest, ReportIsDeterministicAndSorted)
{
    auto& metrics = MetricsRegistry::global();
    // Insert in scrambled order; names hash to arbitrary stripes.
    metrics.incr("zeta.count", 2);
    metrics.observe("mid.latency", 0.5);
    metrics.set("alpha.gauge", 1.0);
    metrics.incr("alpha.count");
    metrics.set("zeta.gauge", 9.0);

    const std::string first = metrics.report();
    const std::string second = metrics.report();
    EXPECT_EQ(first, second);

    // Entries come out sorted by name within each kind.
    EXPECT_LT(first.find("alpha.count"), first.find("zeta.count"));
    EXPECT_LT(first.find("alpha.gauge"), first.find("zeta.gauge"));

    // The merged accessors see every stripe.
    EXPECT_EQ(metrics.counters().size(), 2u);
    EXPECT_EQ(metrics.gauges().size(), 2u);
    EXPECT_EQ(metrics.timings().size(), 1u);
    EXPECT_EQ(metrics.size(), 5u);
}

TEST_F(ObsTest, StripedRegistryCountsExactlyUnderContention)
{
    auto& metrics = MetricsRegistry::global();
    constexpr int kThreads = 8;
    constexpr int kIters = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&metrics, t] {
            const std::string own =
                "worker." + std::to_string(t) + ".count";
            const std::string own_gauge =
                "worker." + std::to_string(t) + ".gauge";
            for (int i = 0; i < kIters; ++i) {
                metrics.incr("shared.count");
                metrics.incr(own);
                metrics.observe("shared.latency",
                                static_cast<double>(i));
                metrics.set(own_gauge, static_cast<double>(i));
            }
        });
    }
    // A racing reader: under TSan this is the data-race proof for the
    // striped read/merge paths.
    threads.emplace_back([&metrics] {
        for (int i = 0; i < 50; ++i) {
            (void)metrics.report();
            (void)metrics.counter("shared.count");
            (void)metrics.timing("shared.latency");
            (void)metrics.size();
        }
    });
    for (auto& thread : threads)
        thread.join();

    EXPECT_EQ(metrics.counter("shared.count"),
              static_cast<uint64_t>(kThreads) * kIters);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(
            metrics.counter("worker." + std::to_string(t) + ".count"),
            static_cast<uint64_t>(kIters));
        EXPECT_DOUBLE_EQ(
            metrics.gauge("worker." + std::to_string(t) + ".gauge"),
            static_cast<double>(kIters - 1));
    }
    EXPECT_EQ(metrics.timing("shared.latency").count(),
              static_cast<std::size_t>(kThreads) * kIters);
}

} // namespace
} // namespace recsim::obs
