/**
 * @file
 * Randomized stress/soak tests for the async session path — the
 * regression net for the retire/post race class PR 2 fixed.
 *
 * A seeded iteration drives four sessions (multi-QP, half of them with
 * doorbell batching) across a three-node cluster with a mixed
 * sync/async op soup: random op kinds, random line-aligned sizes,
 * random peers, random QP pins. Optionally a fabric failure is injected
 * mid-flight. Invariants checked:
 *
 *  - exact-once completion: one OpResult per post, outstanding() == 0
 *    at quiescence, and the session/RMC double-completion fatals (see
 *    session.cc reapAvailable, rcp.cc processReply) never fire;
 *  - no lost wakeup: every driver coroutine reaches its done flag —
 *    a sleeper the completion hook misses would hang at quiescence;
 *  - retire-before-post ordering: per-QP windows retire the oldest
 *    handle before a ring lap, and awaitCompletion's stale-token fatal
 *    never fires;
 *  - determinism: the same seed twice gives byte-identical stats dumps
 *    (including final tick), with and without failure injection;
 *  - zero-allocation steady state: this binary overrides operator
 *    new/delete, and after a warm-up phase the mixed workload performs
 *    0 heap allocations (the strong form of 0 allocs/event);
 *  - cache coherence: every node's L2 passes its audit
 *    (L2Cache::checkInvariants) at quiescence after each run.
 *
 * Default soak: 10 seeds x 2 runs. SONUMA_STRESS_SEEDS=<n> extends the
 * seed range for longer soaks (ctest -L stress runs with a long
 * timeout budget for exactly that).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "api/testbed.hh"
#include "fabric/fault.hh"
#include "node/cluster.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

static std::uint64_t g_allocCount = 0;
// Debug aid for alloc-source tracing; true inside the measured steady
// window.
static volatile bool g_steadyProbe = false;

// ASan has its own operator new/delete and flags cross-library frees
// against this malloc-backed override as alloc-dealloc mismatches; the
// allocation-counting harness is meaningless under a sanitizer anyway
// (SteadyStateIsAllocationFree then passes vacuously on zero counts),
// so keep ASan's allocator and skip the override.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SONUMA_ASAN_ACTIVE 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define SONUMA_ASAN_ACTIVE 1
#endif

static int g_traceLeft = 0;

#ifndef SONUMA_ASAN_ACTIVE
#include <execinfo.h>
#include <unistd.h>

// GCC pairs the replaced operator new with the default operator delete
// and flags the std::free below as mismatched; the override is
// malloc-backed end to end, so the pairing is in fact correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    ++g_allocCount;
    if (g_steadyProbe && g_traceLeft > 0) {
        --g_traceLeft;
        void *frames[12];
        const int depth = backtrace(frames, 12);
        backtrace_symbols_fd(frames, depth, 2);
        static const char nl[] = "----\n";
        (void)!write(2, nl, sizeof(nl) - 1);
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop
#endif // !SONUMA_ASAN_ACTIVE

namespace {

using namespace sonuma;
using api::ClusterSpec;
using api::OpHandle;
using api::OpResult;
using api::RmcSession;
using api::TestBed;
using api::operator""_KiB;

constexpr std::uint32_t kNodes = 3;
constexpr std::uint32_t kQpCount = 2;
constexpr std::uint32_t kQpDepth = 8;
constexpr std::uint32_t kMaxLines = 4; //!< largest op: 4 lines (256 B)
constexpr std::uint64_t kSegBytes = 256_KiB;

/** Coherence audit of every node's L2; call at quiescence. */
void
checkCoherence(TestBed &bed)
{
    for (std::uint32_t i = 0; i < bed.nodes(); ++i)
        bed.cluster().node(i).l2().checkInvariants();
}

/** One session's driver state: per-QP FIFO windows in fixed storage. */
struct Driver
{
    RmcSession *s = nullptr;
    std::uint32_t nodeIdx = 0;
    sim::Rng rng{1};
    vm::VAddr buf = 0;

    // Fixed-capacity per-QP windows (no deque: the steady state of
    // this binary must not allocate). head/count index a flat array of
    // kQpDepth handles per QP.
    std::vector<OpHandle> slots;           //!< [qp * kQpDepth + i]
    std::vector<std::uint32_t> head, count;

    // Accounting.
    std::uint64_t posts = 0;
    std::uint64_t completions = 0;
    std::uint64_t okStatus = 0;
    std::uint64_t fabricErrors = 0;
    std::uint64_t flushed = 0;
    std::uint64_t otherErrors = 0;
    bool done = false;

    void
    init(RmcSession &session, std::uint32_t node, std::uint64_t seed)
    {
        s = &session;
        nodeIdx = node;
        rng.reseed(seed);
        buf = session.allocBuffer(
            std::uint64_t(session.queueDepth()) * kMaxLines * 64);
        slots.assign(session.queueDepth(), OpHandle{});
        head.assign(session.qpCount(), 0);
        count.assign(session.qpCount(), 0);
    }

    void
    record(const OpResult &r)
    {
        ++completions;
        if (r.ok())
            ++okStatus;
        else if (r.status == rmc::CqStatus::kFabricError)
            ++fabricErrors;
        else if (r.status == rmc::CqStatus::kFlushed)
            ++flushed;
        else
            ++otherErrors;
    }

    /** Retire the oldest handle of @p qp (caller ensures count > 0). */
    sim::ValueTask<std::uint8_t>
    retire(std::uint32_t qp)
    {
        OpHandle h = slots[qp * kQpDepth + head[qp]];
        head[qp] = (head[qp] + 1) % kQpDepth;
        --count[qp];
        record(co_await h);
        co_return 0;
    }

    /**
     * Retire-before-post: if the window still holds the handle whose
     * WQ slot the next post will recycle (sync ops share the rings, so
     * this can happen before the per-QP window is formally full),
     * retire it first. The windows are FIFO in post order, so only the
     * front can own the slot.
     */
    sim::ValueTask<std::uint8_t>
    makeRoomFor(std::uint32_t g)
    {
        const std::uint32_t qp = g / s->perQpDepth();
        while (count[qp] > 0 &&
               slots[qp * kQpDepth + head[qp]].slot() == g)
            co_await retire(qp);
        co_return 0;
    }

    sim::Task
    run(int ops)
    {
        for (int i = 0; i < ops; ++i) {
            const std::uint32_t lines =
                1 + static_cast<std::uint32_t>(rng.below(kMaxLines));
            const std::uint32_t len = lines * 64;
            const auto peer = static_cast<sim::NodeId>(
                (nodeIdx + 1 + rng.below(kNodes - 1)) % kNodes);
            const std::uint64_t off =
                rng.below((kSegBytes - len) / 64) * 64;
            const int kind = static_cast<int>(rng.below(8));

            if (kind < 4) {
                // Async read/write through a per-QP FIFO window with
                // retire-before-post: the oldest handle of the target
                // QP retires before its ring can lap.
                const std::uint32_t hint =
                    rng.chance(0.5)
                        ? static_cast<std::uint32_t>(
                              rng.below(s->qpCount()))
                        : RmcSession::kAnyQp;
                const std::uint32_t g = s->nextSlot(hint);
                const std::uint32_t qp = g / s->perQpDepth();
                co_await makeRoomFor(g);
                const vm::VAddr lbuf =
                    buf + std::uint64_t(g) * kMaxLines * 64;
                OpHandle h =
                    kind < 3
                        ? co_await s->readAsync(peer, off, lbuf, len,
                                                hint)
                        : co_await s->writeAsync(peer, off, lbuf, len,
                                                 hint);
                ++posts;
                slots[qp * kQpDepth + (head[qp] + count[qp]) % kQpDepth] =
                    h;
                ++count[qp];
                // Opportunistically retire whatever already completed.
                for (std::uint32_t q = 0; q < s->qpCount(); ++q)
                    while (count[q] > 0 &&
                           slots[q * kQpDepth + head[q]].done())
                        co_await retire(q);
            } else {
                // Sync ops ride the same round-robin rings: clear the
                // slot they are about to recycle first.
                co_await makeRoomFor(s->nextSlot());
                ++posts;
                if (kind == 4)
                    record(co_await s->read(peer, off, buf, len));
                else if (kind == 5)
                    record(co_await s->write(peer, off, buf, len));
                else if (kind == 6)
                    record(co_await s->fetchAdd(peer, off, i + 1));
                else
                    record(co_await s->compareSwap(peer, off, 0, i));
            }
        }
        for (std::uint32_t q = 0; q < s->qpCount(); ++q)
            while (count[q] > 0)
                co_await retire(q);
        co_await s->drain();
        done = true;
    }
};

struct IterationResult
{
    std::string statsDump;   //!< finalTick + full registry dump
    std::uint64_t posts = 0;
    std::uint64_t completions = 0;
    std::uint64_t okStatus = 0;
    std::uint64_t fabricErrors = 0;
    std::uint64_t flushed = 0;
    std::uint64_t otherErrors = 0;
    std::uint64_t retransmits = 0;   //!< pooled node<i>.rmc.retransmits
    std::uint64_t dropped = 0;       //!< fabric-level packet drops
};

/** Mid-flight session teardown for one iteration (see runIteration). */
struct Teardown
{
    int victim = -1; //!< driver index whose session close()s mid-run
    api::RmcSession::CloseMode mode =
        api::RmcSession::CloseMode::kDestroyQps;
};

/**
 * One seeded soak iteration. @p injectFailure schedules a failNode on a
 * seed-derived victim at a seed-derived tick mid-flight. @p plan
 * optionally arms a scheduled FaultPlan (link flaps, drop windows) and
 * @p ctx picks the context id, so teardown/rebuild loops can vary it.
 * @p teardown schedules a session.close() on a driver's session at a
 * seed-derived tick — exact-once must hold through it (in-flight ops
 * flush, later posts complete as kFlushed stubs, nothing hangs).
 */
IterationResult
runIteration(std::uint64_t seed, bool injectFailure, int opsPerSession,
             const fab::FaultPlan *plan = nullptr, sim::CtxId ctx = 1,
             const Teardown *teardown = nullptr)
{
    ClusterSpec spec = ClusterSpec{}
                           .nodes(kNodes)
                           .qpCount(kQpCount)
                           .qpDepth(kQpDepth)
                           .segmentPerNode(kSegBytes)
                           .context(ctx)
                           .seed(seed);
    if (plan)
        spec.faultPlan(*plan);
    TestBed bed(spec);

    // Four sessions: two on node 1 (distinct coroutines — sessions are
    // single-owner), one each on nodes 0 and 2. Odd sessions batch
    // doorbells.
    std::vector<Driver> drivers(4);
    const std::uint32_t nodeOf[4] = {1, 1, 0, 2};
    for (int i = 0; i < 4; ++i) {
        api::SessionParams sp;
        sp.doorbellBatching = (i % 2) == 1;
        drivers[i].init(bed.newSession(nodeOf[i], 0, sp), nodeOf[i],
                        seed * 1000003 + i);
    }

    if (injectFailure) {
        sim::Rng frng(seed ^ 0xfab);
        const auto victim =
            static_cast<sim::NodeId>(frng.below(kNodes));
        const sim::Tick when = sim::usToTicks(5) +
                               frng.below(sim::usToTicks(40));
        bed.sim().eq().schedule(when, [&bed, victim] {
            bed.cluster().fabric().failNode(victim);
        });
    }

    if (teardown && teardown->victim >= 0) {
        sim::Rng trng(seed ^ 0x7ea);
        const sim::Tick when = sim::usToTicks(5) +
                               trng.below(sim::usToTicks(40));
        api::RmcSession *victimSession = drivers[teardown->victim].s;
        const auto mode = teardown->mode;
        bed.sim().eq().schedule(when, [victimSession, mode] {
            victimSession->close(mode);
        });
    }

    for (auto &d : drivers)
        bed.spawn(d.run(opsPerSession));
    bed.run();
    checkCoherence(bed);

    IterationResult res;
    for (auto &d : drivers) {
        // No lost wakeup: a sleeper whose completion hook misfired
        // would still be suspended at quiescence.
        EXPECT_TRUE(d.done) << "driver coroutine hung (lost wakeup?)";
        // Exact-once: every post produced exactly one completion.
        EXPECT_EQ(d.posts, d.completions);
        EXPECT_EQ(d.s->outstanding(), 0u);
        EXPECT_EQ(d.s->pendingDoorbells(), 0u);
        if (!injectFailure && !plan && !teardown) {
            EXPECT_EQ(d.okStatus, d.posts);
            EXPECT_EQ(d.fabricErrors, 0u);
        }
        // Never anything but Ok / FabricError / Flushed — except under
        // a context unregister, where peers' in-flight ops to the
        // removed CT entry legitimately complete as bad-context bounds
        // errors.
        if (!teardown || teardown->mode !=
                             api::RmcSession::CloseMode::kUnregisterContext) {
            EXPECT_EQ(d.otherErrors, 0u);
        }
        res.posts += d.posts;
        res.completions += d.completions;
        res.okStatus += d.okStatus;
        res.fabricErrors += d.fabricErrors;
        res.flushed += d.flushed;
        res.otherErrors += d.otherErrors;
    }
    for (std::uint32_t i = 0; i < kNodes; ++i)
        if (const auto *c = bed.sim().stats().counter(
                "node" + std::to_string(i) + ".rmc.retransmits"))
            res.retransmits += c->value();
    res.dropped = bed.cluster().fabric().droppedMessages();

    std::ostringstream os;
    os << "finalTick=" << bed.sim().now() << "\n";
    bed.sim().stats().dump(os);
    res.statsDump = os.str();
    return res;
}

int
seedCount()
{
    if (const char *env = std::getenv("SONUMA_STRESS_SEEDS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return 10;
}

TEST(SessionStress, SeededSoakIsDeterministicWithoutFailures)
{
    for (int seed = 1; seed <= seedCount(); seed += 2) {
        const IterationResult a = runIteration(seed, false, 60);
        const IterationResult b = runIteration(seed, false, 60);
        EXPECT_EQ(a.statsDump, b.statsDump)
            << "seed " << seed << " not reproducible";
        EXPECT_EQ(a.posts, b.posts);
        EXPECT_GT(a.posts, 0u);
    }
}

TEST(SessionStress, SeededSoakIsDeterministicWithFabricResets)
{
    std::uint64_t sawFabricErrors = 0;
    for (int seed = 2; seed <= seedCount() + 1; seed += 2) {
        const IterationResult a = runIteration(seed, true, 60);
        const IterationResult b = runIteration(seed, true, 60);
        EXPECT_EQ(a.statsDump, b.statsDump)
            << "seed " << seed << " with failure injection not "
               "reproducible";
        EXPECT_EQ(a.fabricErrors, b.fabricErrors);
        EXPECT_EQ(a.otherErrors, 0u);
        sawFabricErrors += a.fabricErrors;
    }
    // The injection window must actually bite in at least one seed, or
    // this test stops covering the abort paths.
    EXPECT_GT(sawFabricErrors, 0u);
}

TEST(SessionStress, LinkFlapSoakIsDeterministic)
{
    // A scheduled link-flap plan (kill/recover cycles on 0->1 and 1->0)
    // layered under the random op soup: packets crossing a down link
    // are dropped, the transfer timeout fires — and the RMC's
    // retransmission budget rides the loss out, so every op still
    // completes Ok with no app-visible aborts (the flap windows close
    // long before the attempt budget runs dry). Two same-seed runs
    // must be byte-identical including the fault events.
    std::uint64_t sawRetransmits = 0, sawDrops = 0;
    for (int seed = 3; seed <= seedCount() + 2; seed += 2) {
        fab::FaultPlan plan;
        plan.flapLink(sim::usToTicks(5), sim::usToTicks(10), 4, 0, 1);
        plan.flapLink(sim::usToTicks(8), sim::usToTicks(10), 4, 1, 0);
        const IterationResult a = runIteration(seed, false, 60, &plan);
        const IterationResult b = runIteration(seed, false, 60, &plan);
        EXPECT_EQ(a.statsDump, b.statsDump)
            << "seed " << seed << " with link flaps not reproducible";
        EXPECT_EQ(a.retransmits, b.retransmits);
        // Exactly-once recovery: drops become retransmits, never lost
        // or failed ops.
        EXPECT_EQ(a.okStatus, a.posts)
            << "seed " << seed << " lost ops despite retransmission";
        EXPECT_EQ(a.fabricErrors, 0u);
        EXPECT_EQ(a.otherErrors, 0u);
        sawRetransmits += a.retransmits;
        sawDrops += a.dropped;
    }
    // The flap windows must actually drop traffic — and the recovery
    // path must actually run — in at least one seed.
    EXPECT_GT(sawDrops, 0u);
    EXPECT_GT(sawRetransmits, 0u);
}

TEST(SessionStress, LossyWindowSoak)
{
    // Staggered silent-drop windows on three links under the random op
    // soup. Unlike flaps (which kill whole links and surface failure
    // notifications), drops are invisible to everything except the
    // transfer timeout — so this soaks the retransmission protocol
    // proper: every lost request or reply is re-sent, replayed writes
    // and atomics are dedup-suppressed at the responder, and every op
    // completes Ok exactly once with zero app-visible aborts. The
    // always-on fatals in the RMC (stale-reply, double-completion) and
    // session (idle-slot completion) turn any exactly-once violation
    // into a test abort, so the soak is sensitive to more than the
    // counters checked here.
    std::uint64_t sawRetransmits = 0, sawDrops = 0;
    for (int seed = 4; seed <= seedCount() + 3; seed += 2) {
        fab::FaultPlan plan;
        plan.dropWindow(sim::usToTicks(5), sim::usToTicks(45), 0, 1);
        plan.dropWindow(sim::usToTicks(10), sim::usToTicks(50), 1, 2);
        plan.dropWindow(sim::usToTicks(15), sim::usToTicks(55), 2, 0);
        const IterationResult a = runIteration(seed, false, 60, &plan);
        const IterationResult b = runIteration(seed, false, 60, &plan);
        EXPECT_EQ(a.statsDump, b.statsDump)
            << "seed " << seed << " with drop windows not reproducible";
        EXPECT_EQ(a.okStatus, a.posts)
            << "seed " << seed << " saw app-visible aborts";
        EXPECT_EQ(a.fabricErrors, 0u);
        EXPECT_EQ(a.flushed, 0u);
        EXPECT_EQ(a.otherErrors, 0u);
        sawRetransmits += a.retransmits;
        sawDrops += a.dropped;
    }
    EXPECT_GT(sawDrops, 0u) << "drop windows never bit";
    EXPECT_GT(sawRetransmits, 0u) << "recovery path never ran";
}

TEST(SessionStress, MidFlightTeardownMatrix)
{
    // destroyQueuePair mid-flight (any victim session) and context
    // unregister mid-flight (the sole session on node 0): in both
    // modes every posted op still gets exactly one completion — Ok if
    // it beat the teardown, kFlushed otherwise — no driver hangs, and
    // same-seed runs replay byte-identically. Unregister additionally
    // makes peers' ops to the dropped context complete as bad-context
    // errors, which the harness tolerates for that mode only.
    using CloseMode = api::RmcSession::CloseMode;
    std::uint64_t sawFlushed = 0;
    for (int seed = 5; seed <= seedCount() + 4; seed += 2) {
        for (const int victim : {0, 1, 2, 3}) {
            const Teardown td{victim, CloseMode::kDestroyQps};
            const IterationResult a =
                runIteration(seed, false, 60, nullptr, 1, &td);
            const IterationResult b =
                runIteration(seed, false, 60, nullptr, 1, &td);
            EXPECT_EQ(a.statsDump, b.statsDump)
                << "seed " << seed << " victim " << victim
                << " destroy-mode teardown not reproducible";
            EXPECT_EQ(a.posts, a.completions);
            sawFlushed += a.flushed;
        }
        // Unregister tears down the whole context on the victim's
        // node, so the victim must be the only session there (node 0).
        const Teardown td{2, CloseMode::kUnregisterContext};
        const IterationResult a =
            runIteration(seed, false, 60, nullptr, 1, &td);
        const IterationResult b =
            runIteration(seed, false, 60, nullptr, 1, &td);
        EXPECT_EQ(a.statsDump, b.statsDump)
            << "seed " << seed
            << " unregister-mode teardown not reproducible";
        EXPECT_EQ(a.posts, a.completions);
        sawFlushed += a.flushed;
    }
    // The teardown window must actually catch traffic mid-flight in at
    // least one (seed, victim) combination.
    EXPECT_GT(sawFlushed, 0u) << "no teardown ever flushed an op";
}

TEST(SessionStress, TeardownRebuildWithFaultsIsStable)
{
    // Repeated build/run/destroy of whole TestBeds — alternating
    // context ids and fault plans — must neither leak state across
    // builds nor drift: every iteration with the same (seed, plan, ctx)
    // reproduces the same stats dump as its first occurrence.
    fab::FaultPlan flap;
    flap.flapLink(sim::usToTicks(5), sim::usToTicks(10), 3, 0, 1);
    std::string reference[2];
    for (int iter = 0; iter < 6; ++iter) {
        const bool faulted = (iter % 2) == 1;
        const sim::CtxId ctx = faulted ? 2 : 1;
        const IterationResult r = runIteration(
            42, false, 40, faulted ? &flap : nullptr, ctx);
        EXPECT_GT(r.posts, 0u);
        EXPECT_EQ(r.otherErrors, 0u);
        std::string &ref = reference[faulted ? 1 : 0];
        if (ref.empty())
            ref = r.statsDump;
        else
            EXPECT_EQ(r.statsDump, ref)
                << "iteration " << iter
                << " diverged from an identical earlier build";
    }
}

TEST(SessionStress, SteadyStateIsAllocationFree)
{
#ifdef SONUMA_ASAN_ACTIVE
    GTEST_SKIP() << "allocation counting needs the operator new override, "
                    "which is disabled under AddressSanitizer";
#endif
    // Iteration 1 warms process-global pools (coroutine frames, event
    // slots); the measured iteration then warms its own session-local
    // state during a warm phase and must run its steady phase without
    // touching the allocator. The workload revisits a bounded offset
    // table so the cache directories reach their full working set
    // during warm-up.
    struct Phase
    {
        int warmLeft = 0;
        std::uint64_t allocsAtSteadyStart = 0;
        std::uint64_t allocsAtSteadyEnd = 0;
        int running = 0;
    };

    auto runCounted = [](std::uint64_t seed, Phase *phase,
                         std::uint64_t *steadyAllocs) {
        TestBed bed(ClusterSpec{}
                        .nodes(kNodes)
                        .qpCount(kQpCount)
                        .qpDepth(kQpDepth)
                        .segmentPerNode(kSegBytes)
                        .seed(seed));
        std::vector<Driver> drivers(4);
        const std::uint32_t nodeOf[4] = {1, 1, 0, 2};
        for (int i = 0; i < 4; ++i) {
            api::SessionParams sp;
            sp.doorbellBatching = (i % 2) == 1;
            drivers[i].init(bed.newSession(nodeOf[i], 0, sp), nodeOf[i],
                            seed * 7919 + i);
        }

        // Bounded working set: 24 offsets per driver, fixed for both
        // phases (vector sized before the run).
        struct Fixed
        {
            Driver *d;
            Phase *phase;
            std::vector<std::uint64_t> offsets;

            sim::Task
            run()
            {
                Driver &dr = *d;
                RmcSession *s = dr.s;
                const int kWarmOps = 48, kSteadyOps = 96;

                // Saturation warm-up, before the measured window: all
                // four drivers flood full windows of max-size reads
                // concurrently, then sweep an atomic through every
                // slot. This pushes every high-water mark (reply
                // pipeline concurrency, fabric link rings, frame
                // pools, waiter lists, scratch lines) past anything
                // the random steady mix reaches.
                for (int round = 0; round < 2; ++round) {
                    for (std::uint32_t q = 0; q < s->qpCount(); ++q)
                        for (std::uint32_t i = 0; i < s->perQpDepth();
                             ++i) {
                            const std::uint32_t g = s->nextSlot(q);
                            co_await dr.makeRoomFor(g);
                            const auto peer = static_cast<sim::NodeId>(
                                (dr.nodeIdx + 1 + i % (kNodes - 1)) %
                                kNodes);
                            OpHandle h = co_await s->readAsync(
                                peer,
                                offsets[(q * s->perQpDepth() + i) %
                                        offsets.size()],
                                dr.buf + std::uint64_t(g) * kMaxLines *
                                             64,
                                kMaxLines * 64, q);
                            ++dr.posts;
                            dr.slots[q * kQpDepth +
                                     (dr.head[q] + dr.count[q]) %
                                         kQpDepth] = h;
                            ++dr.count[q];
                        }
                    for (std::uint32_t q = 0; q < s->qpCount(); ++q)
                        while (dr.count[q] > 0)
                            co_await dr.retire(q);
                }
                for (std::uint32_t i = 0; i < s->queueDepth(); ++i) {
                    co_await dr.makeRoomFor(s->nextSlot());
                    ++dr.posts;
                    dr.record(co_await s->fetchAdd(
                        static_cast<sim::NodeId>(
                            (dr.nodeIdx + 1 + i % (kNodes - 1)) %
                            kNodes),
                        offsets[i % offsets.size()], 1));
                }

                for (int i = 0; i < kWarmOps + kSteadyOps; ++i) {
                    if (i == kWarmOps && --phase->warmLeft == 0) {
                        phase->allocsAtSteadyStart = g_allocCount;
                        g_steadyProbe = true;
                        if (std::getenv("SONUMA_TRACE_ALLOCS"))
                            g_traceLeft = 25;
                    }
                    const std::uint64_t off =
                        offsets[static_cast<std::size_t>(
                            dr.rng.below(offsets.size()))];
                    const std::uint32_t len =
                        64 * (1 + static_cast<std::uint32_t>(
                                      dr.rng.below(kMaxLines)));
                    const auto peer = static_cast<sim::NodeId>(
                        (dr.nodeIdx + 1 + dr.rng.below(kNodes - 1)) %
                        kNodes);
                    const int kind = static_cast<int>(dr.rng.below(6));
                    if (kind < 3) {
                        const std::uint32_t hint =
                            dr.rng.chance(0.5)
                                ? static_cast<std::uint32_t>(
                                      dr.rng.below(s->qpCount()))
                                : RmcSession::kAnyQp;
                        const std::uint32_t g = s->nextSlot(hint);
                        const std::uint32_t qp = g / s->perQpDepth();
                        co_await dr.makeRoomFor(g);
                        OpHandle h = co_await s->readAsync(
                            peer, off,
                            dr.buf + std::uint64_t(g) * kMaxLines * 64,
                            len, hint);
                        ++dr.posts;
                        dr.slots[qp * kQpDepth +
                                 (dr.head[qp] + dr.count[qp]) %
                                     kQpDepth] = h;
                        ++dr.count[qp];
                    } else {
                        co_await dr.makeRoomFor(s->nextSlot());
                        ++dr.posts;
                        if (kind == 3)
                            dr.record(co_await s->write(peer, off,
                                                        dr.buf, len));
                        else if (kind == 4)
                            dr.record(
                                co_await s->fetchAdd(peer, off, 1));
                        else
                            dr.record(co_await s->read(peer, off,
                                                       dr.buf, len));
                    }
                }
                for (std::uint32_t q = 0; q < s->qpCount(); ++q)
                    while (dr.count[q] > 0)
                        co_await dr.retire(q);
                co_await s->drain();
                // The steady window closes when the FIRST driver
                // finishes: everything before this point ran with all
                // four sessions active.
                if (phase->allocsAtSteadyEnd == 0) {
                    phase->allocsAtSteadyEnd = g_allocCount;
                    g_steadyProbe = false;
                }
                dr.done = true;
            }
        };

        phase->warmLeft = 4;
        phase->allocsAtSteadyStart = 0;
        phase->allocsAtSteadyEnd = 0;
        std::vector<Fixed> bodies(4);
        for (int i = 0; i < 4; ++i) {
            bodies[i].d = &drivers[i];
            bodies[i].phase = phase;
            sim::Rng orng(seed * 31 + i);
            bodies[i].offsets.resize(24);
            for (auto &o : bodies[i].offsets)
                o = orng.below((kSegBytes - kMaxLines * 64) / 64) * 64;
        }
        for (auto &b : bodies)
            bed.spawn(b.run());
        bed.run();
        checkCoherence(bed);
        for (auto &d : drivers) {
            EXPECT_TRUE(d.done);
            EXPECT_EQ(d.s->outstanding(), 0u);
        }
        ASSERT_GT(phase->allocsAtSteadyStart, 0u);
        ASSERT_GE(phase->allocsAtSteadyEnd, phase->allocsAtSteadyStart);
        *steadyAllocs =
            phase->allocsAtSteadyEnd - phase->allocsAtSteadyStart;
    };

    Phase phase;
    std::uint64_t warmRun = 0, measuredRun = 0;
    runCounted(101, &phase, &warmRun);      // warms global pools
    runCounted(101, &phase, &measuredRun);  // measured
    EXPECT_EQ(measuredRun, 0u)
        << "steady-state session traffic must not allocate "
           "(0 allocs/event)";
}

} // namespace
