/**
 * @file
 * Property-based and parameterized tests.
 *
 *  - Golden-model fuzz: random sequences of remote reads/writes/atomics
 *    against a host-side reference memory; simulated memory must agree
 *    byte-for-byte at quiescence, for any seed.
 *  - Determinism: identical seeds produce identical simulated end times
 *    and identical memory images.
 *  - Parameterized sweeps: remote reads across request sizes and MAQ
 *    depths always complete, preserve data, and respect monotonicity.
 *  - Every run ends with each node's L2 coherence audit
 *    (L2Cache::checkInvariants).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <vector>

#include "api/session.hh"
#include "node/cluster.hh"
#include "sim/simulation.hh"

namespace {

using namespace sonuma;
using api::RmcSession;

constexpr sim::CtxId kCtx = 1;
constexpr std::uint64_t kSegBytes = 1 << 20;

/** Coherence audit of every node's L2; call at quiescence. */
void
checkCoherence(node::Cluster &cluster)
{
    for (std::size_t i = 0; i < cluster.nodeCount(); ++i)
        cluster.node(i).l2().checkInvariants();
}

struct World
{
    sim::Simulation sim;
    std::unique_ptr<node::Cluster> cluster;
    os::Process *server = nullptr;
    os::Process *client = nullptr;
    vm::VAddr seg = 0;

    explicit World(std::uint64_t seed,
                   const rmc::RmcParams &rp =
                       rmc::RmcParams::simulatedHardware())
        : sim(seed)
    {
        node::ClusterParams params;
        params.nodes = 2;
        params.node.rmc = rp;
        cluster = std::make_unique<node::Cluster>(sim, params);
        cluster->createSharedContext(kCtx);
        server = &cluster->node(0).os().createProcess(0);
        seg = server->alloc(kSegBytes);
        cluster->node(0).driver().openContext(*server, kCtx);
        cluster->node(0).driver().registerSegment(*server, kCtx, seg,
                                                  kSegBytes);
        client = &cluster->node(1).os().createProcess(0);
    }

    /** Run to quiescence, then audit coherence. */
    sim::Tick
    run()
    {
        const sim::Tick end = sim.run();
        checkCoherence(*cluster);
        return end;
    }
};

/** Host-side reference of the server segment. */
class GoldenMemory
{
  public:
    GoldenMemory() : bytes_(kSegBytes, 0) {}

    void
    write(std::uint64_t off, const void *src, std::uint64_t len)
    {
        std::memcpy(bytes_.data() + off, src, len);
    }

    void
    read(std::uint64_t off, void *dst, std::uint64_t len) const
    {
        std::memcpy(dst, bytes_.data() + off, len);
    }

    std::uint64_t
    fetchAdd(std::uint64_t off, std::uint64_t v)
    {
        std::uint64_t old;
        std::memcpy(&old, bytes_.data() + off, 8);
        const std::uint64_t next = old + v;
        std::memcpy(bytes_.data() + off, &next, 8);
        return old;
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Random op mix against the golden model; checked at quiescence. */
void
runFuzz(std::uint64_t seed, int ops)
{
    World w(seed);
    GoldenMemory golden;
    RmcSession session(w.cluster->node(1).core(0),
                       w.cluster->node(1).driver(), *w.client, kCtx);
    const vm::VAddr buf = session.allocBuffer(8192);

    bool mismatch = false;
    w.sim.spawn([](World *w, GoldenMemory *golden, RmcSession *s,
                   vm::VAddr buf, std::uint64_t seed, int ops,
                   bool *mismatch) -> sim::Task {
        sim::Rng rng(seed * 77 + 1);
        for (int i = 0; i < ops; ++i) {
            // Line-aligned offset and size (the RMC's granularity).
            const std::uint32_t lines =
                static_cast<std::uint32_t>(rng.range(1, 32));
            const std::uint32_t len = lines * 64;
            const std::uint64_t off =
                rng.below((kSegBytes - len) / 64) * 64;
            const int kind = static_cast<int>(rng.below(4));
            if (kind == 0) { // remote write of fresh random data
                std::vector<std::uint8_t> data(len);
                for (auto &b : data)
                    b = static_cast<std::uint8_t>(rng.next());
                w->client->addressSpace().write(buf, data.data(), len);
                const api::OpResult r =
                    co_await s->write(0, off, buf, len);
                EXPECT_TRUE(r.ok());
                golden->write(off, data.data(), len);
            } else if (kind == 1) { // remote read, compare to golden
                const api::OpResult r =
                    co_await s->read(0, off, buf, len);
                EXPECT_TRUE(r.ok());
                std::vector<std::uint8_t> got(len), want(len);
                w->client->addressSpace().read(buf, got.data(), len);
                golden->read(off, want.data(), len);
                if (got != want)
                    *mismatch = true;
            } else if (kind == 2) { // fetch-add on an aligned word
                const std::uint64_t woff = off & ~std::uint64_t(7);
                const api::OpResult r =
                    co_await s->fetchAdd(0, woff, i + 1);
                EXPECT_TRUE(r.ok());
                const std::uint64_t wantOld =
                    golden->fetchAdd(woff, static_cast<std::uint64_t>(
                                               i + 1));
                if (r.oldValue != wantOld)
                    *mismatch = true;
            } else { // local (server-side) functional write
                std::uint64_t v = rng.next();
                w->server->addressSpace().writeT(w->seg + off, v);
                golden->write(off, &v, sizeof(v));
            }
        }
    }(&w, &golden, &session, buf, seed, ops, &mismatch));
    w.run();

    EXPECT_FALSE(mismatch);
    // Full segment comparison at quiescence.
    std::vector<std::uint8_t> image(kSegBytes);
    w.server->addressSpace().read(w.seg, image.data(), kSegBytes);
    EXPECT_EQ(image, golden.bytes());
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzSeeds, RandomOpsMatchGoldenModel)
{
    runFuzz(GetParam(), 300);
}

INSTANTIATE_TEST_SUITE_P(Property, FuzzSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Determinism, SameSeedSameTimeline)
{
    auto run = [](std::uint64_t seed) {
        World w(seed);
        RmcSession s(w.cluster->node(1).core(0),
                     w.cluster->node(1).driver(), *w.client, kCtx);
        const vm::VAddr buf = s.allocBuffer(4096);
        w.sim.spawn([](RmcSession *s, vm::VAddr buf) -> sim::Task {
            for (int i = 0; i < 100; ++i)
                co_await s->read(0, (std::uint64_t(i) * 640) % 65536,
                                 buf, 64 * (1 + i % 4));
        }(&s, buf));
        return w.run();
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), 0u);
}

/** Parameterized read-size sweep: integrity + latency monotonicity. */
class ReadSizes : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ReadSizes, DataIntactAndLatencyOrdered)
{
    const std::uint32_t size = GetParam();
    World w(7);
    // Pattern the server segment.
    std::vector<std::uint8_t> pattern(size);
    for (std::uint32_t i = 0; i < size; ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 131 + 7);
    w.server->addressSpace().write(w.seg + 4096, pattern.data(), size);

    RmcSession s(w.cluster->node(1).core(0), w.cluster->node(1).driver(),
                 *w.client, kCtx);
    const vm::VAddr buf = s.allocBuffer(size);
    sim::Tick small = 0, measured = 0;
    w.sim.spawn([](sim::Simulation *sim, RmcSession *s, vm::VAddr buf,
                   std::uint32_t size, sim::Tick *small,
                   sim::Tick *measured) -> sim::Task {
        co_await s->read(0, 4096, buf, 64); // warm
        sim::Tick t0 = sim->now();
        co_await s->read(0, 4096, buf, 64);
        *small = sim->now() - t0;
        t0 = sim->now();
        const api::OpResult r = co_await s->read(0, 4096, buf, size);
        *measured = sim->now() - t0;
        EXPECT_TRUE(r.ok());
    }(&w.sim, &s, buf, size, &small, &measured));
    w.run();

    std::vector<std::uint8_t> got(size);
    w.client->addressSpace().read(buf, got.data(), size);
    EXPECT_EQ(got, pattern);
    EXPECT_GE(measured, small); // bigger requests are never faster
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReadSizes,
                         ::testing::Values(64, 128, 256, 512, 1024, 2048,
                                           4096, 8192));

/** Parameterized MAQ-depth sweep: completion under tiny structures. */
class MaqDepths : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MaqDepths, PipelinedReadsCompleteAtAnyDepth)
{
    auto rp = rmc::RmcParams::simulatedHardware();
    rp.maqEntries = GetParam();
    World w(9, rp);
    RmcSession s(w.cluster->node(1).core(0), w.cluster->node(1).driver(),
                 *w.client, kCtx);
    const vm::VAddr buf = s.allocBuffer(64ull * 64);
    int done = 0;
    w.sim.spawn([](RmcSession *s, vm::VAddr buf, int *done) -> sim::Task {
        std::deque<api::OpHandle> window;
        for (int i = 0; i < 300; ++i) {
            while (window.size() >= s->queueDepth()) {
                EXPECT_TRUE((co_await window.front()).ok());
                window.pop_front();
                ++*done;
            }
            window.push_back(co_await s->readAsync(
                0, (std::uint64_t(i) % 512) * 64,
                buf + (std::uint64_t(i) % 64) * 64, 64));
            while (!window.empty() && window.front().done()) {
                EXPECT_TRUE((co_await window.front()).ok());
                window.pop_front();
                ++*done;
            }
        }
        while (!window.empty()) {
            EXPECT_TRUE((co_await window.front()).ok());
            window.pop_front();
            ++*done;
        }
    }(&s, buf, &done));
    w.run();
    EXPECT_EQ(done, 300);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaqDepths,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

//
// Multi-QP WQ/CQ invariants: every posted slot completes exactly once,
// completion order within one QP is FIFO for uniform ops, cross-QP
// order is unconstrained, and batched doorbells never lose a post.
//

/** Per-seed fuzz of the multi-QP async path with full accounting. */
class MultiQpSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MultiQpSeeds, EveryPostedSlotCompletesExactlyOnce)
{
    const std::uint64_t seed = GetParam();
    auto rp = rmc::RmcParams::simulatedHardware();
    rp.qpCount = 4;
    rp.qpEntries = 8;
    World w(seed, rp);
    api::SessionParams sp;
    sp.doorbellBatching = (seed % 2) == 1; // both modes across seeds
    RmcSession s(w.cluster->node(1).core(0), w.cluster->node(1).driver(),
                 *w.client, kCtx, sp);
    ASSERT_EQ(s.qpCount(), 4u);
    ASSERT_EQ(s.perQpDepth(), 8u);
    ASSERT_EQ(s.queueDepth(), 32u);
    const vm::VAddr buf =
        s.allocBuffer(std::uint64_t(s.queueDepth()) * 64);

    struct Tracking
    {
        int completions = 0;
        int posts = 0;
        bool badStatus = false;
        std::vector<int> perQp; //!< completions per queue pair
    } t;
    t.perQp.resize(4, 0);

    w.sim.spawn([](RmcSession *s, vm::VAddr buf, std::uint64_t seed,
                   Tracking *t) -> sim::Task {
        sim::Rng rng(seed * 131 + 7);
        // Windows are per queue pair: with explicit pins a single QP
        // can lap its own ring long before queueDepth() global posts,
        // so retire-before-post must be enforced per QP (the general
        // form of the one-ring-lap rule).
        std::vector<std::deque<api::OpHandle>> window(s->qpCount());
        auto retire = [&](std::uint32_t qp) -> sim::ValueTask<std::uint8_t> {
            api::OpHandle h = window[qp].front();
            window[qp].pop_front();
            const api::OpResult r = co_await h;
            ++t->completions;
            if (!r.ok())
                t->badStatus = true;
            ++t->perQp[qp];
            co_return 0;
        };
        for (int i = 0; i < 400; ++i) {
            // Mix explicit QP pins and round-robin picks.
            const bool pin = rng.chance(0.5);
            const std::uint32_t hint =
                pin ? static_cast<std::uint32_t>(rng.below(s->qpCount()))
                    : RmcSession::kAnyQp;
            const std::uint32_t g = s->nextSlot(hint);
            const std::uint32_t qp = g / s->perQpDepth();
            while (window[qp].size() >= s->perQpDepth())
                co_await retire(qp);
            api::OpHandle h = co_await s->readAsync(
                0, rng.below((kSegBytes - 64) / 64) * 64,
                buf + std::uint64_t(g) * 64, 64, hint);
            EXPECT_EQ(h.slot(), g); // nextSlot() predicted the slot
            ++t->posts;
            window[qp].push_back(h);
            for (std::uint32_t q = 0; q < s->qpCount(); ++q)
                while (!window[q].empty() && window[q].front().done())
                    co_await retire(q);
        }
        for (std::uint32_t q = 0; q < s->qpCount(); ++q)
            while (!window[q].empty())
                co_await retire(q);
    }(&s, buf, seed, &t));
    w.run();

    // Exactly once: one completion per post, nothing left in flight,
    // and the RMC's CQ-write count agrees with the session's view.
    EXPECT_EQ(t.posts, 400);
    EXPECT_EQ(t.completions, 400);
    EXPECT_EQ(s.outstanding(), 0u);
    EXPECT_EQ(s.pendingDoorbells(), 0u);
    EXPECT_FALSE(t.badStatus);

    // Round-robin + random pins must exercise every queue pair.
    int total = 0;
    for (const int n : t.perQp) {
        EXPECT_GT(n, 0) << "a QP was starved";
        total += n;
    }
    EXPECT_EQ(total, 400);
}

INSTANTIATE_TEST_SUITE_P(Property, MultiQpSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

/**
 * Per-QP FIFO: with uniform service latency (warm TLBs, single-line
 * reads of one warm page), completions on one queue pair are observed
 * in post order. Cross-QP completion order is deliberately left
 * unconstrained — nothing ties one QP's ticks to another's.
 */
TEST(MultiQp, PerQpFifoCompletionOrderForUniformOps)
{
    auto rp = rmc::RmcParams::simulatedHardware();
    rp.qpCount = 4;
    rp.qpEntries = 8;
    World w(23, rp);
    RmcSession s(w.cluster->node(1).core(0), w.cluster->node(1).driver(),
                 *w.client, kCtx);
    const vm::VAddr buf =
        s.allocBuffer(std::uint64_t(s.queueDepth()) * 64);

    std::vector<std::vector<sim::Tick>> perQp(4);
    w.sim.spawn([](RmcSession *s, vm::VAddr buf,
                   std::vector<std::vector<sim::Tick>> *perQp)
                    -> sim::Task {
        // Warm every TLB/CT$/cache involved: one full lap of sync
        // reads (round-robin covers each QP's slots).
        for (std::uint32_t i = 0; i < s->queueDepth(); ++i)
            EXPECT_TRUE((co_await s->read(0, std::uint64_t(i % 8) * 64,
                                          buf + std::uint64_t(i) * 64,
                                          64))
                            .ok());
        // Measured laps: a full window on each QP, pinned explicitly.
        std::deque<std::pair<api::OpHandle, std::uint32_t>> window;
        for (int lap = 0; lap < 3; ++lap) {
            for (std::uint32_t q = 0; q < s->qpCount(); ++q)
                for (std::uint32_t i = 0; i < s->perQpDepth(); ++i) {
                    const std::uint32_t g = s->nextSlot(q);
                    window.emplace_back(
                        co_await s->readAsync(0,
                                              std::uint64_t(i % 8) * 64,
                                              buf + std::uint64_t(g) * 64,
                                              64, q),
                        q);
                }
            for (auto &[h, q] : window) {
                const api::OpResult r = co_await h;
                EXPECT_TRUE(r.ok());
                (*perQp)[q].push_back(r.completedAt);
            }
            window.clear();
        }
    }(&s, buf, &perQp));
    w.run();

    for (const auto &ticks : perQp) {
        ASSERT_EQ(ticks.size(), 3u * 8u);
        for (std::size_t i = 1; i < ticks.size(); ++i)
            EXPECT_GE(ticks[i], ticks[i - 1])
                << "same-QP uniform reads completed out of post order";
    }
}

/** Batched doorbells: posts stay invisible until flush, none lost. */
TEST(MultiQp, DoorbellBatchingFlushReleasesAllPosts)
{
    auto rp = rmc::RmcParams::simulatedHardware();
    rp.qpCount = 4;
    rp.qpEntries = 8;
    World w(17, rp);
    api::SessionParams sp;
    sp.doorbellBatching = true;
    RmcSession s(w.cluster->node(1).core(0), w.cluster->node(1).driver(),
                 *w.client, kCtx, sp);
    const vm::VAddr buf = s.allocBuffer(64ull * 64);

    bool sawAll = false;
    w.sim.spawn([](RmcSession *s, vm::VAddr buf, bool *sawAll)
                    -> sim::Task {
        // One post per QP, round-robin: four pending doorbells.
        std::vector<api::OpHandle> hs;
        for (int i = 0; i < 4; ++i)
            hs.push_back(co_await s->readAsync(
                0, std::uint64_t(i) * 64, buf + std::uint64_t(i) * 64,
                64));
        EXPECT_EQ(s->pendingDoorbells(), 4u);
        EXPECT_EQ(s->outstanding(), 4u);
        s->flush();
        EXPECT_EQ(s->pendingDoorbells(), 0u);
        for (auto &h : hs)
            EXPECT_TRUE((co_await h).ok());
        *sawAll = true;

        // Without an explicit flush the blocking rendezvous flushes
        // automatically — a sync op after batched posts cannot hang.
        api::OpHandle h = co_await s->readAsync(0, 0, buf, 64);
        EXPECT_TRUE(h.valid());
        EXPECT_EQ(s->pendingDoorbells(), 1u);
        EXPECT_TRUE((co_await h).ok());
        EXPECT_EQ(s->pendingDoorbells(), 0u);
    }(&s, buf, &sawAll));
    w.run();
    EXPECT_TRUE(sawAll);
    EXPECT_EQ(s.outstanding(), 0u);
}

/** The emulation platform preserves semantics, only timing changes. */
TEST(EmulationPlatform, SameSemanticsSlowerClock)
{
    World hw(11, rmc::RmcParams::simulatedHardware());
    World emu(11, rmc::RmcParams::emulationPlatform());

    auto measure = [](World &w) {
        RmcSession s(w.cluster->node(1).core(0),
                     w.cluster->node(1).driver(), *w.client, kCtx);
        const vm::VAddr buf = s.allocBuffer(64);
        w.server->addressSpace().writeT<std::uint64_t>(w.seg, 0xfeed);
        sim::Tick rtt = 0;
        w.sim.spawn([](sim::Simulation *sim, RmcSession *s, vm::VAddr buf,
                       sim::Tick *rtt) -> sim::Task {
            co_await s->read(0, 0, buf, 64); // warm
            const sim::Tick t0 = sim->now();
            const api::OpResult r = co_await s->read(0, 0, buf, 64);
            *rtt = sim->now() - t0;
            EXPECT_TRUE(r.ok());
        }(&w.sim, &s, buf, &rtt));
        w.run();
        std::uint64_t got = 0;
        w.client->addressSpace().read(buf, &got, sizeof(got));
        EXPECT_EQ(got, 0xfeedu);
        return rtt;
    };

    const sim::Tick hwRtt = measure(hw);
    const sim::Tick emuRtt = measure(emu);
    // Paper: dev platform ~5x the simulated hardware's latency.
    EXPECT_GT(static_cast<double>(emuRtt) / static_cast<double>(hwRtt),
              3.0);
    EXPECT_LT(static_cast<double>(emuRtt) / static_cast<double>(hwRtt),
              8.0);
}

/** Torus-fabric cluster: full stack over a routed topology. */
TEST(TorusCluster, RemoteReadsAcrossHops)
{
    sim::Simulation sim(13);
    node::ClusterParams params;
    params.nodes = 4;
    params.topology = node::Topology::kTorus;
    params.torus.dims = {2, 2};
    node::Cluster cluster(sim, params);
    cluster.createSharedContext(kCtx);

    auto &server = cluster.node(3).os().createProcess(0);
    const vm::VAddr seg = server.alloc(1 << 16);
    cluster.node(3).driver().openContext(server, kCtx);
    cluster.node(3).driver().registerSegment(server, kCtx, seg, 1 << 16);
    server.addressSpace().writeT<std::uint64_t>(seg + 128, 0x70517051ULL);

    auto &client = cluster.node(0).os().createProcess(0);
    RmcSession s(cluster.node(0).core(0), cluster.node(0).driver(),
                 client, kCtx);
    const vm::VAddr buf = s.allocBuffer(64);
    api::OpResult result;
    result.status = rmc::CqStatus::kFabricError;
    sim.spawn([](RmcSession *s, vm::VAddr buf,
                 api::OpResult *r) -> sim::Task {
        *r = co_await s->read(3, 128, buf, 64);
    }(&s, buf, &result));
    sim.run();
    checkCoherence(cluster);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(client.addressSpace().readT<std::uint64_t>(buf), 0x70517051ULL);
}

} // namespace
