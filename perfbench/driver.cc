/**
 * @file
 * One benchmark sample: set up one workload through the public API
 * (ClusterSpec/TestBed, Workload, RmcSession, app::PageRankFineWorkload),
 * simulate it, verify it, and print one JSON line of measurements.
 *
 *   perfbench_driver --workload=remote_read_2n --seed=1
 *   perfbench_driver --workload=uniform_n256 --seed=1 --size=tiny
 *   perfbench_driver --workload=pagerank_n64 --seed=1 \
 *       --obs-period-ns=1000 --trace-out=trace.json      # traced sample
 *
 * perfbench/run.py drives this binary, pools samples and checks them;
 * perfbench/README.md explains the workloads and metrics. Every input
 * (read targets, graph) is derived here from --seed; the library only
 * receives the generated inputs.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "api/testbed.hh"
#include "api/workload.hh"
#include "app/graph.hh"
#include "app/pagerank.hh"
#include "bench/common.hh"
#include "sim/time_series.hh"

namespace {

using namespace sonuma;
using api::operator""_MiB;

/** OBS ring slots per series; run.py sizes the period to fit the run. */
constexpr std::size_t kObsSlots = 1024;

//
// ------------------------------ host spans -----------------------------
//

/** Host-time spans around each call the benchmark makes into a layer. */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        int parent;
        double start;
        double end;
    };

    int
    begin(std::string name, int parent = -1)
    {
        spans_.push_back(Span{std::move(name), parent, now(), 0.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void end(int id) { spans_[id].end = now(); }

    /** Duration of the first span called @p name; 0 when absent. */
    double
    seconds(const std::string &name) const
    {
        for (const Span &s : spans_)
            if (s.name == name)
                return s.end - s.start;
        return 0.0;
    }

    const std::vector<Span> &all() const { return spans_; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point t0_ = Clock::now();

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction. */
class Scope
{
  public:
    Scope(Spans &spans, std::string name, int parent = -1)
        : spans_(spans), id_(spans.begin(std::move(name), parent))
    {}
    ~Scope() { spans_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    Spans &spans_;
    int id_;
};

//
// ------------------------------ JSON output ----------------------------
//

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    return "\"" + sim::jsonEscape(s) + "\"";
}

/** Flat JSON object writer: fields render in insertion order. */
class Json
{
  public:
    Json &
    raw(const std::string &key, const std::string &value)
    {
        os_ << (first_ ? "{" : ", ") << str(key) << ": " << value;
        first_ = false;
        return *this;
    }

    Json &
    put(const std::string &key, double v)
    {
        return raw(key, num(v));
    }

    Json &
    put(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    put(const std::string &key, const std::string &v)
    {
        return raw(key, str(v));
    }

    std::string text() const { return first_ ? "{}" : os_.str() + "}"; }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

//
// ------------------------------ input streams --------------------------
//

/** splitmix64: the benchmark's own generator for read-target streams. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : x_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t x_;
};

struct Target
{
    sim::NodeId peer;
    std::uint64_t offset;
};

/**
 * One closed-loop phase of a node's program: at most @c window reads
 * outstanding, the next posted only when the oldest completes. A
 * window of 1 uses the blocking read, exactly as bench/fig7 times its
 * latency curve.
 */
struct Phase
{
    std::uint32_t window = 1;
    std::uint32_t bytes = 64;
    std::vector<Target> targets;
    sim::Tick start = 0; //!< filled by the run
    sim::Tick end = 0;
};

/** What one node's body observed (simulated time). */
struct NodeLog
{
    std::vector<Phase> phases;
    std::vector<sim::Tick> latencies; //!< post -> completion, per op
    std::uint64_t posted = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    sim::Tick firstPost = 0;
    sim::Tick lastDone = 0;
};

/** Uniform reads: random peer != self, random line of the data area. */
std::vector<Target>
uniformTargets(SplitMix &rng, std::uint32_t self, std::uint32_t nodes,
               std::uint64_t dataOff, std::uint64_t dataBytes,
               std::uint32_t count)
{
    std::vector<Target> out(count);
    const std::uint64_t lines = dataBytes / sim::kCacheLineBytes;
    for (Target &t : out) {
        const auto hop = static_cast<std::uint32_t>(rng.below(nodes - 1));
        t.peer = static_cast<sim::NodeId>((self + 1 + hop) % nodes);
        t.offset = dataOff + rng.below(lines) * sim::kCacheLineBytes;
    }
    return out;
}

/** Install the closed-loop reader body that replays @p logs. */
void
installReaders(api::Workload &wl, std::vector<NodeLog> &logs)
{
    // Size the latency logs now, so the measured run never reallocates.
    for (NodeLog &log : logs) {
        std::size_t ops = 0;
        for (const Phase &ph : log.phases)
            ops += ph.targets.size();
        log.latencies.reserve(ops);
    }
    wl.onEachNode([&logs](api::Workload::NodeCtx &ctx) -> sim::Task {
        NodeLog &log = logs[ctx.nodeId()];
        auto &s = ctx.session();
        std::uint32_t maxBytes = 0;
        for (const Phase &ph : log.phases)
            maxBytes = std::max(maxBytes, ph.bytes);
        if (maxBytes == 0)
            co_return;
        const std::uint32_t depth = s.queueDepth();
        const vm::VAddr buf = s.allocBuffer(std::uint64_t(depth) * maxBytes);

        auto settle = [&](const api::OpResult &r) {
            log.lastDone = ctx.sim().now();
            log.latencies.push_back(r.latency);
            if (r.ok())
                ++log.ok;
            else
                ++log.failed;
        };
        auto stampPost = [&] {
            if (log.posted++ == 0)
                log.firstPost = ctx.sim().now();
        };

        std::deque<api::OpHandle> window;
        for (Phase &ph : log.phases) {
            ph.start = ctx.sim().now();
            for (const Target &t : ph.targets) {
                if (ph.window == 1) {
                    stampPost();
                    settle(co_await s.read(t.peer, t.offset, buf, ph.bytes));
                    continue;
                }
                while (window.size() >= ph.window) {
                    settle(co_await window.front());
                    window.pop_front();
                }
                const std::uint32_t slot = s.nextSlot();
                stampPost();
                window.push_back(co_await s.readAsync(
                    t.peer, t.offset, buf + std::uint64_t(slot) * maxBytes,
                    ph.bytes));
            }
            while (!window.empty()) {
                settle(co_await window.front());
                window.pop_front();
            }
            ph.end = ctx.sim().now();
        }
    });
}

//
// ------------------------------- workloads -----------------------------
//

/** Everything one sample reports besides the counters. */
struct Result
{
    std::uint64_t ops = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    double latP50Ns = 0;
    double latP99Ns = 0;
    std::uint64_t latSamples = 0;
    std::string latSource = "exact";
    sim::Tick region = 0;          //!< simulated measured region
    sim::Tick bodySpan = 0;        //!< first post -> last completion
    std::uint64_t bodyRequests = 0; //!< request packets the bodies posted
    sim::Tick endTick = 0;         //!< last body completion (absolute)
    std::vector<std::pair<std::string, double>> extra;
    std::vector<std::pair<std::string, bool>> checks;
};

/** Nearest-rank percentile of exact samples. */
double
percentileNs(std::vector<sim::Tick> &v, double p)
{
    if (v.empty())
        return 0.0;
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + rank, v.end());
    return sim::ticksToNs(v[rank]);
}

/**
 * Percentile of pooled log2 buckets (sim::Histogram layout: bucket i >= 1
 * holds [2^(i-1), 2^i)), interpolated linearly inside the bucket. The
 * library's own estimate is the bucket midpoint, which cannot resolve a
 * change smaller than a factor of two.
 */
double
percentileFromLog2(const std::vector<std::uint64_t> &buckets,
                   std::uint64_t count, double p)
{
    const double target = p / 100.0 * static_cast<double>(count);
    double seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        const double next = seen + static_cast<double>(buckets[i]);
        if (next >= target) {
            const double lo = i == 0 ? 0.0 : std::ldexp(1.0, int(i) - 1);
            const double hi = std::ldexp(1.0, int(i));
            return lo + (target - seen) / double(buckets[i]) * (hi - lo);
        }
        seen = next;
    }
    return 0.0;
}

/** Pool the reader logs into @p res (ops, latencies, body span). */
void
poolLogs(std::vector<NodeLog> &logs, Result &res)
{
    std::vector<sim::Tick> lat;
    sim::Tick first = ~sim::Tick(0);
    for (NodeLog &log : logs) {
        res.ops += log.posted;
        res.ok += log.ok;
        res.failed += log.failed;
        lat.insert(lat.end(), log.latencies.begin(), log.latencies.end());
        for (const Phase &ph : log.phases)
            res.bodyRequests += std::uint64_t(ph.targets.size()) *
                                (ph.bytes / sim::kCacheLineBytes);
        if (log.posted) {
            first = std::min(first, log.firstPost);
            res.endTick = std::max(res.endTick, log.lastDone);
        }
    }
    res.bodySpan = res.endTick > first ? res.endTick - first : 0;
    res.latSamples = lat.size();
    res.latP50Ns = percentileNs(lat, 50);
    res.latP99Ns = percentileNs(lat, 99);
}

/** Sum a per-node counter ("<prefix>node<i>.<suffix>") over the cluster. */
std::uint64_t
sumNodes(api::TestBed &bed, const std::string &suffix,
         const std::string &prefix = "")
{
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < bed.nodes(); ++i)
        if (const auto *c = bed.sim().stats().counter(
                prefix + "node" + std::to_string(i) + "." + suffix))
            total += c->value();
    return total;
}

/**
 * One workload. Calls, in order: inputs (setup.inputs), spec, install
 * (setup.install, after the TestBed and sessions exist), then verify
 * after the run.
 */
class Bench
{
  public:
    virtual ~Bench() = default;
    virtual void inputs(std::uint64_t seed) = 0;
    virtual api::ClusterSpec spec(std::uint64_t seed) const = 0;
    virtual void install(api::TestBed &bed, api::Workload &wl) = 0;
    virtual void verify(api::TestBed &bed, Result &res) = 0;
    /** Whether the modelled caches start warm for the measurement. */
    virtual const char *cacheState() const = 0;
};

/**
 * remote_read_2n: the Fig. 7 protocol on a 2-node crossbar (Table 1).
 * Node 1 reads node 0: per size, 16 untimed warm reads (TLB and CT$
 * fills), a latency phase with one read outstanding at fig7's addresses,
 * then a bandwidth phase with the full window at seeded random lines.
 */
class RemoteRead2n : public Bench
{
  public:
    explicit RemoteRead2n(bool tiny) : tiny_(tiny) {}

    void
    inputs(std::uint64_t seed) override
    {
        SplitMix rng(seed);
        sizes_ = tiny_ ? std::vector<std::uint32_t>{64, 1024}
                            : std::vector<std::uint32_t>{
                                  64, 128, 256, 512, 1024, 2048, 4096, 8192};
        logs_.assign(2, NodeLog{});
        const std::uint64_t dataOff = api::Barrier::regionBytes(2);
        const std::uint64_t span = kSegBytes / 2;
        for (const std::uint32_t bytes : sizes_) {
            const std::uint32_t iters =
                tiny_ ? 8 : (bytes <= 512 ? 300 : 100);
            // bench/fig7_remote_read.cc's one-sided op counts.
            const std::uint32_t bwOps =
                tiny_ ? 64
                           : (bytes <= 256 ? 20000
                                           : (bytes <= 2048 ? 4000 : 1500));
            Phase warm, lat, bw;
            warm.bytes = lat.bytes = bw.bytes = bytes;
            for (std::uint32_t i = 0; i < 16; ++i)
                warm.targets.push_back(
                    {0, dataOff + (std::uint64_t(i) * bytes) % span});
            for (std::uint32_t i = 0; i < iters; ++i)
                lat.targets.push_back(
                    {0, dataOff + (std::uint64_t(i) * bytes) % span});
            bw.window = kQpDepth;
            for (std::uint32_t i = 0; i < bwOps; ++i)
                bw.targets.push_back(
                    {0, dataOff + rng.below(span / bytes) * bytes});
            logs_[1].phases.push_back(std::move(warm));
            logs_[1].phases.push_back(std::move(lat));
            logs_[1].phases.push_back(std::move(bw));
        }
    }

    api::ClusterSpec
    spec(std::uint64_t seed) const override
    {
        return api::ClusterSpec{}
            .nodes(2)
            .rmc(rmc::RmcParams::simulatedHardware())
            .qpDepth(kQpDepth)
            .segmentPerNode(kSegBytes)
            .seed(seed);
    }

    void
    install(api::TestBed &, api::Workload &wl) override
    {
        installReaders(wl, logs_);
    }

    void
    verify(api::TestBed &, Result &res) override
    {
        poolLogs(logs_, res);
        // The 64 B latency phase is the second phase of the first size.
        const Phase &lat = logs_[1].phases[1];
        const double read64 = sim::ticksToNs(lat.end - lat.start) /
                              static_cast<double>(lat.targets.size());
        res.extra.emplace_back("sim_read64_ns", read64);
        res.extra.emplace_back("read64_reads",
                               static_cast<double>(lat.targets.size()));
        res.checks.emplace_back("ok_plus_failed_eq_ops",
                                res.ok + res.failed == res.ops);
        res.checks.emplace_back("no_failed_ops", res.failed == 0);
    }

    const char *
    cacheState() const override
    {
        return "cold caches; TLB and CT$ warmed by 16 reads per size "
               "before each latency phase";
    }

  private:
    static constexpr std::uint32_t kQpDepth = 64;
    static constexpr std::uint64_t kSegBytes = 64_MiB;
    bool tiny_;
    std::vector<std::uint32_t> sizes_;
    std::vector<NodeLog> logs_;
};

/**
 * uniform_n256 / drop_recovery_n64: every node streams 64 B reads at
 * uniformly random peers and lines, closed loop at qd16. The drop
 * variant adds a silent drop window on one link; workload retries are
 * off, so only RMC retransmission can recover a dropped packet.
 */
class UniformReads : public Bench
{
  public:
    UniformReads(bool tiny, bool drop) : tiny_(tiny), drop_(drop)
    {
        if (drop_) {
            dims_ = tiny_ ? std::vector<std::uint32_t>{2, 2, 2}
                               : std::vector<std::uint32_t>{4, 4, 4};
            readsPerNode_ = tiny_ ? 64 : 1024;
        } else {
            dims_ = tiny_ ? std::vector<std::uint32_t>{2, 2, 4}
                               : std::vector<std::uint32_t>{4, 8, 8};
            readsPerNode_ = tiny_ ? 16 : kUniformReadsPerNode;
        }
        nodes_ = 1;
        for (const std::uint32_t d : dims_)
            nodes_ *= d;
    }

    void
    inputs(std::uint64_t seed) override
    {
        SplitMix rng(seed);
        const std::uint64_t dataOff = api::Barrier::regionBytes(nodes_);
        logs_.assign(nodes_, NodeLog{});
        for (std::uint32_t i = 0; i < nodes_; ++i) {
            Phase ph;
            ph.window = kQpDepth;
            ph.targets = uniformTargets(rng, i, nodes_, dataOff,
                                        kSegBytes - dataOff, readsPerNode_);
            logs_[i].phases.push_back(std::move(ph));
        }
    }

    api::ClusterSpec
    spec(std::uint64_t seed) const override
    {
        auto rp = rmc::RmcParams::simulatedHardware();
        api::ClusterSpec s;
        s.nodes(nodes_).torus(dims_).qpDepth(kQpDepth).segmentPerNode(
            kSegBytes);
        if (drop_) {
            rp.maxAttempts = 6;
            fab::FaultPlan plan;
            std::string error;
            if (!fab::FaultPlan::parse("drop@10us+100us", nodes_, &plan,
                                       &error))
                throw std::invalid_argument(error);
            s.faultPlan(plan);
        }
        return s.rmc(rp).seed(seed);
    }

    void
    install(api::TestBed &, api::Workload &wl) override
    {
        installReaders(wl, logs_);
    }

    void
    verify(api::TestBed &bed, Result &res) override
    {
        poolLogs(logs_, res);
        const std::uint64_t unrecoverable = sumNodes(bed, "rmc.unrecoverable");
        res.checks.emplace_back("ok_plus_failed_eq_ops",
                                res.ok + res.failed == res.ops);
        res.checks.emplace_back("no_failed_ops", res.failed == 0);
        if (drop_) {
            const std::uint64_t retransmits =
                sumNodes(bed, "rmc.retransmits");
            res.checks.emplace_back("ok_plus_unrecoverable_eq_ops",
                                    res.ok + unrecoverable == res.ops);
            res.checks.emplace_back("retransmits_gt_0", retransmits > 0);
            res.checks.emplace_back("unrecoverable_eq_0",
                                    unrecoverable == 0);
        }
    }

    const char *
    cacheState() const override
    {
        return "cold: caches, TLBs and CT$ start empty";
    }

  private:
    /**
     * Reads per node on uniform_n256, sized so the reads are a visible
     * minority of run_s next to the two N^2 barrier episodes.
     */
    static constexpr std::uint32_t kUniformReadsPerNode = 256;
    static constexpr std::uint32_t kQpDepth = 16;
    static constexpr std::uint64_t kSegBytes = 1_MiB;
    bool tiny_;
    bool drop_;
    std::vector<std::uint32_t> dims_;
    std::uint32_t nodes_ = 0;
    std::uint32_t readsPerNode_ = 0;
    std::vector<NodeLog> logs_;
};

/**
 * pagerank_n64: Fig. 9 fine-grain BSP PageRank (one remote read per
 * cross-partition edge) on a 4x4x4 torus, the FIG9 sweep cell's shape.
 */
class PageRank64 : public Bench
{
  public:
    explicit PageRank64(bool tiny) : tiny_(tiny)
    {
        dims_ = tiny_ ? std::vector<std::uint32_t>{2, 2, 2}
                           : std::vector<std::uint32_t>{4, 4, 4};
        nodes_ = dims_[0] * dims_[1] * dims_[2];
    }

    void
    inputs(std::uint64_t seed) override
    {
        sim::Rng grng(seed);
        g_ = app::generatePowerLaw(grng, tiny_ ? 2048 : 65536, 8);
        sim::Rng prng(seed + nodes_);
        part_ = app::randomPartition(prng, g_.numVertices, nodes_);
        cfg_.supersteps = 1;
        cfg_.seed = seed;
        cfg_.l2PerUnitBytes = kL2Bytes;
        pr_ = std::make_unique<app::PageRankFineWorkload>(g_, part_, cfg_);
    }

    api::ClusterSpec
    spec(std::uint64_t seed) const override
    {
        return api::ClusterSpec{}
            .nodes(nodes_)
            .torus(dims_)
            .rmc(rmc::RmcParams::simulatedHardware())
            .qpDepth(64)
            .l2PerNode(kL2Bytes)
            .segmentPerNode(pr_->segmentBytesNeeded())
            .seed(seed);
    }

    void
    install(api::TestBed &bed, api::Workload &wl) override
    {
        pr_->install(bed, wl);
    }

    void
    verify(api::TestBed &bed, Result &res) override
    {
        const app::PageRankRun run = pr_->collect(bed);
        // ok and ops come from the app body's own per-node counters,
        // failed from the RMC's abort counters, so the identity below
        // checks three independent tallies. (With workload retries off
        // the body stops the simulation on its first failed read.)
        res.ops = sumNodes(bed, "ops", "perfbench.");
        res.ok = sumNodes(bed, "okOps", "perfbench.");
        res.failed = run.aborts;
        res.region = run.elapsed;
        // The app body is opaque from here: its span is the measured
        // superstep region it reports, and its latencies come from the
        // per-node log2 histograms.
        res.bodySpan = run.elapsed;
        res.bodyRequests = run.remoteOps;
        std::vector<std::uint64_t> pooled;
        std::uint64_t count = 0;
        for (std::uint32_t i = 0; i < nodes_; ++i) {
            const auto *h = bed.sim().stats().histogram(
                "perfbench.node" + std::to_string(i) + ".opLatencyNs");
            if (!h)
                continue;
            count += h->count();
            pooled.resize(std::max(pooled.size(), h->buckets().size()), 0);
            for (std::size_t j = 0; j < h->buckets().size(); ++j)
                pooled[j] += h->buckets()[j];
        }
        res.latSamples = count;
        res.latP50Ns = percentileFromLog2(pooled, count, 50);
        res.latP99Ns = percentileFromLog2(pooled, count, 99);
        res.latSource = "log2 histogram, interpolated";

        const auto ref = app::referencePageRank(g_, cfg_.supersteps,
                                                cfg_.damping);
        double maxDiff = 0;
        for (std::size_t v = 0; v < ref.size(); ++v)
            maxDiff = std::max(maxDiff, std::abs(run.ranks[v] - ref[v]));
        res.extra.emplace_back("rank_max_abs_diff", maxDiff);
        res.extra.emplace_back("cross_edge_fraction",
                               part_.crossEdgeFraction(g_));
        res.checks.emplace_back("ranks_match_host_reference",
                                maxDiff <= 1e-9);
        res.checks.emplace_back("ok_plus_failed_eq_ops",
                                res.ok + res.failed == res.ops);
        res.checks.emplace_back("ops_eq_measured_remote_ops",
                                res.ops == run.measuredRemoteOps);
        res.checks.emplace_back("no_failed_ops",
                                run.aborts == 0 && run.errors == 0);
    }

    const char *
    cacheState() const override
    {
        return "cold: one measured superstep, no warm-up superstep";
    }

  private:
    /** FIG9's scaled-down LLC per node (see bench/fig9_pagerank.cc). */
    static constexpr std::uint64_t kL2Bytes = 256 * 1024;
    bool tiny_;
    std::vector<std::uint32_t> dims_;
    std::uint32_t nodes_ = 0;
    app::Graph g_;
    app::Partition part_;
    app::PageRankConfig cfg_;
    std::unique_ptr<app::PageRankFineWorkload> pr_;
};

std::unique_ptr<Bench>
makeBench(const std::string &name, bool tiny)
{
    if (name == "remote_read_2n")
        return std::make_unique<RemoteRead2n>(tiny);
    if (name == "pagerank_n64")
        return std::make_unique<PageRank64>(tiny);
    if (name == "uniform_n256")
        return std::make_unique<UniformReads>(tiny, false);
    if (name == "drop_recovery_n64")
        return std::make_unique<UniformReads>(tiny, true);
    throw std::invalid_argument("unknown workload '" + name +
                                "'; known: remote_read_2n pagerank_n64 "
                                "uniform_n256 drop_recovery_n64");
}

//
// ------------------------------ collection -----------------------------
//

/** FNV-1a over the stats dump plus the simulated region and end tick. */
std::string
digest(const std::string &dump, sim::Tick region, sim::Tick endTick)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const std::string &s) {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    };
    mix(dump);
    mix("|" + std::to_string(region) + "|" + std::to_string(endTick));
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

/**
 * Counters from the dump, summed across nodes: "node12.l2.hits" pools
 * into "l2.hits"; cluster-wide counters ("torus.dropped") keep their
 * name.
 */
std::map<std::string, std::uint64_t>
poolCounters(const std::string &dump)
{
    std::map<std::string, std::uint64_t> out;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string name, value;
        if (!(ls >> name >> value) || value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos)
            continue;
        if (name.rfind("node", 0) == 0) {
            const auto dot = name.find('.');
            if (dot != std::string::npos &&
                name.find_first_not_of("0123456789", 4) == dot)
                name = name.substr(dot + 1);
        }
        out[name] += std::stoull(value);
    }
    return out;
}

/** Pool the read-only OBS series by kind (traced samples only). */
std::string
obsJson(const sim::StatRegistry &stats)
{
    double utilSum = 0, utilMax = 0, qMax = 0, ejectMax = 0, ittMax = 0;
    std::uint64_t utilN = 0, samples = 0, overwritten = 0;
    auto endsWith = [](const std::string &s, const std::string &suffix) {
        return s.size() >= suffix.size() &&
               s.compare(s.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
    };
    for (const sim::TimeSeries *ts : stats.allTimeSeries()) {
        overwritten += ts->dropped();
        const std::string &n = ts->name();
        for (std::size_t i = 0; i < ts->size(); ++i) {
            const double v = ts->at(i).value;
            ++samples;
            if (endsWith(n, ".util")) {
                utilSum += v;
                ++utilN;
                utilMax = std::max(utilMax, v);
            } else if (endsWith(n, ".qdepth")) {
                qMax = std::max(qMax, v);
            } else if (endsWith(n, ".ejectDepth")) {
                ejectMax = std::max(ejectMax, v);
            } else if (endsWith(n, ".ittOccupancy")) {
                ittMax = std::max(ittMax, v);
            }
        }
    }
    return Json{}
        .put("series", std::uint64_t(stats.allTimeSeries().size()))
        .put("samples", samples)
        .put("samples_overwritten", overwritten)
        .put("link_util_samples", utilN)
        .put("link_util_mean", utilN ? utilSum / double(utilN) : 0.0)
        .put("link_util_max", utilMax)
        .put("link_qdepth_max", qMax)
        .put("eject_depth_max", ejectMax)
        .put("itt_occupancy_max", ittMax)
        .text();
}

std::string
spansJson(const Spans &spans, const std::string &workloadId)
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans.all().size(); ++i) {
        const Spans::Span &s = spans.all()[i];
        out += (i ? ", " : "") +
               Json{}
                   .put("id", std::uint64_t(i))
                   .put("name", s.name)
                   .raw("parent", s.parent < 0 ? "null"
                                               : std::to_string(s.parent))
                   .put("start", s.start)
                   .put("end", s.end)
                   .put("workload", workloadId)
                   .text();
    }
    return out + "]";
}

/** This process's resource use so far (Linux getrusage). */
struct Usage
{
    double cpuS = 0;          //!< user + system CPU seconds
    std::uint64_t minflt = 0; //!< minor page faults
    std::uint64_t maxRssKb = 0;

    static Usage
    now()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        auto secs = [](const timeval &tv) {
            return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
        };
        return Usage{secs(ru.ru_utime) + secs(ru.ru_stime),
                     static_cast<std::uint64_t>(ru.ru_minflt),
                     static_cast<std::uint64_t>(ru.ru_maxrss)};
    }
};

int
runSample(const sonuma::bench::Args &args)
{
    const std::string name = args.get("workload", "");
    const std::uint64_t seed = args.getU64("seed", 1);
    const std::string sizeName = args.get("size", "full");
    if (sizeName != "full" && sizeName != "tiny")
        throw std::invalid_argument("--size must be full or tiny");
    const std::uint64_t obsPeriodNs = args.getU64("obs-period-ns", 0);
    const std::string traceOut = args.get("trace-out", "");

    Spans spans;
    Result res;
    std::string dump;
    std::unique_ptr<Bench> bench = makeBench(name, sizeName == "tiny");
    std::unique_ptr<api::TestBed> bed;
    std::unique_ptr<api::Workload> wl;
    sim::Tick elapsed = 0;
    sim::Tick finalTick = 0;
    std::uint64_t events = 0;
    std::string obs = "null";
    const Usage atStart = Usage::now();
    Usage afterSetup, afterRun;
    {
        Scope setup(spans, "setup");
        {
            Scope s(spans, "setup.inputs", setup.id());
            bench->inputs(seed);
        }
        api::ClusterSpec spec = bench->spec(seed);
        if (obsPeriodNs > 0)
            spec.observability(obsPeriodNs, kObsSlots);
        {
            Scope s(spans, "setup.build", setup.id());
            bed = std::make_unique<api::TestBed>(spec);
        }
        {
            // Every node's application session and QPs, plus the
            // Workload's private barrier sessions.
            Scope s(spans, "setup.sessions", setup.id());
            for (std::uint32_t i = 0; i < bed->nodes(); ++i)
                (void)bed->session(i);
            wl = std::make_unique<api::Workload>(*bed, "perfbench");
        }
        {
            Scope s(spans, "setup.install", setup.id());
            bench->install(*bed, *wl);
        }
    }
    afterSetup = Usage::now();
    {
        Scope s(spans, "run");
        finalTick = wl->run();
    }
    afterRun = Usage::now();
    {
        Scope s(spans, "verify");
        elapsed = wl->elapsed();
        bench->verify(*bed, res);
        if (res.region == 0)
            res.region = elapsed;
    }
    {
        Scope s(spans, "collect");
        std::ostringstream os;
        bed->sim().stats().dump(os);
        dump = os.str();
        events = bed->sim().eq().executedEvents();
        if (obsPeriodNs > 0)
            obs = obsJson(bed->sim().stats());
    }

    Json checks;
    bool allOk = true;
    for (const auto &[check, ok] : res.checks) {
        checks.raw(check, ok ? "true" : "false");
        allOk = allOk && ok;
    }
    Json extra;
    for (const auto &[key, value] : res.extra)
        extra.put(key, value);
    Json counters;
    for (const auto &[counter, value] : poolCounters(dump))
        counters.put(counter, value);

    Json out;
    out.put("workload", name)
        .put("seed", seed)
        .put("size", sizeName)
        .put("nodes", std::uint64_t(bed->nodes()))
        .put("cache_state", std::string(bench->cacheState()))
        .put("setup_s", spans.seconds("setup"))
        .put("build_s", spans.seconds("setup.build"))
        .put("sessions_s", spans.seconds("setup.sessions"))
        .put("inputs_s", spans.seconds("setup.inputs"))
        .put("install_s", spans.seconds("setup.install"))
        .put("run_s", spans.seconds("run"))
        .put("setup_cpu_s", afterSetup.cpuS - atStart.cpuS)
        .put("run_cpu_s", afterRun.cpuS - afterSetup.cpuS)
        .put("setup_minflt", afterSetup.minflt - atStart.minflt)
        .put("run_minflt", afterRun.minflt - afterSetup.minflt)
        .put("verify_s", spans.seconds("verify"))
        .put("collect_s", spans.seconds("collect"))
        .put("ops", res.ops)
        .put("ok", res.ok)
        .put("failed", res.failed)
        .put("lat_samples", res.latSamples)
        .put("lat_p50_ns", res.latP50Ns)
        .put("lat_p99_ns", res.latP99Ns)
        .put("lat_source", res.latSource)
        .put("region_ticks", std::uint64_t(res.region))
        .put("workload_elapsed_ticks", std::uint64_t(elapsed))
        .put("body_span_ticks", std::uint64_t(res.bodySpan))
        .put("body_requests", res.bodyRequests)
        .put("end_tick", std::uint64_t(res.endTick))
        .put("final_tick", std::uint64_t(finalTick))
        .put("ticks_per_ns", std::uint64_t(sim::kTicksPerNs))
        .put("events", events)
        .put("fabric_dropped",
             bed->cluster().fabric().droppedMessages())
        .put("digest", digest(dump, res.region, res.endTick))
        .put("peak_rss_kb", Usage::now().maxRssKb)
        .raw("checks", checks.text())
        .raw("extra", extra.text())
        .raw("counters", counters.text())
        .raw("obs", obs);

    if (!traceOut.empty()) {
        std::ofstream f(traceOut);
        if (!f)
            throw std::runtime_error("cannot write " + traceOut);
        f << Json{}
                 .put("workload", name)
                 .put("seed", seed)
                 .put("obs_period_ns", obsPeriodNs)
                 .raw("spans", spansJson(spans, name + "/seed" +
                                                    std::to_string(seed)))
                 .raw("sample", out.text())
                 .text()
          << "\n";
        if (!f)
            throw std::runtime_error("short write to " + traceOut);
    }
    std::printf("%s\n", out.text().c_str());
    return allOk ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    sonuma::bench::Args args(argc, argv,
                             {"workload", "seed", "size", "obs-period-ns",
                              "trace-out"});
    try {
        return runSample(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
}
