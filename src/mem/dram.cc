/**
 * @file
 * DRAM channel implementation (FR-FCFS over open-row banks).
 */

#include "mem/dram.hh"

#include <algorithm>
#include <cassert>

namespace sonuma::mem {

DramChannel::DramChannel(sim::EventQueue &eq, sim::StatRegistry &stats,
                         const std::string &name, const DramParams &params)
    : eq_(eq), params_(params), banks_(params.banks),
      reads_(stats, name + ".reads", "DRAM read accesses"),
      writes_(stats, name + ".writes", "DRAM write accesses"),
      rowHits_(stats, name + ".rowHits", "row-buffer hits"),
      rowMisses_(stats, name + ".rowMisses", "row-buffer misses"),
      latency_(stats, name + ".latencyNs", "access latency (ns)")
{
}

std::uint32_t
DramChannel::bankOf(PAddr addr) const
{
    // Line-interleaved bank mapping: consecutive cache lines hit
    // consecutive banks, so streams use all banks.
    return static_cast<std::uint32_t>((addr / sim::kCacheLineBytes) %
                                      params_.banks);
}

std::uint64_t
DramChannel::rowOf(PAddr addr) const
{
    return addr / (static_cast<std::uint64_t>(params_.rowBytes) *
                   params_.banks);
}

bool
DramChannel::access(PAddr addr, bool write, sim::Callback done)
{
    if (full())
        return false;
    queue_.push_back(Request{addr, write, std::move(done), eq_.now()});
    if (write)
        writes_.inc();
    else
        reads_.inc();
    scheduleDrain(eq_.now() + params_.controllerDelay);
    return true;
}

void
DramChannel::scheduleDrain(sim::Tick when)
{
    if (drainScheduled_)
        return;
    drainScheduled_ = true;
    eq_.schedule(std::max(when, eq_.now()), [this] {
        drainScheduled_ = false;
        drain();
    });
}

void
DramChannel::drain()
{
    if (queue_.empty())
        return;

    // FR-FCFS: prefer the oldest request whose bank has its row open and is
    // ready; otherwise fall back to the oldest request overall.
    const sim::Tick now = eq_.now();
    std::size_t pick = queue_.size();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Bank &b = banks_[bankOf(queue_[i].addr)];
        if (b.rowOpen && b.openRow == rowOf(queue_[i].addr) &&
            b.readyAt <= now) {
            pick = i;
            break;
        }
    }
    if (pick == queue_.size())
        pick = 0;

    Request req = std::move(queue_[pick]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));

    Bank &bank = banks_[bankOf(req.addr)];
    const std::uint64_t row = rowOf(req.addr);

    sim::Tick cmdStart = std::max(now, bank.readyAt);
    sim::Tick dataReady;
    if (bank.rowOpen && bank.openRow == row) {
        rowHits_.inc();
        dataReady = cmdStart + params_.tCas;
    } else {
        rowMisses_.inc();
        const sim::Tick precharge = bank.rowOpen ? params_.tRp : 0;
        dataReady = cmdStart + precharge + params_.tRcd + params_.tCas;
        bank.rowOpen = true;
        bank.openRow = row;
    }

    // Data bus: one 64-byte transfer, serialized across banks.
    const sim::Tick busStart = std::max(dataReady, busBusyUntil_);
    const sim::Tick busEnd = busStart + params_.busTransfer;
    busBusyUntil_ = busEnd;
    bank.readyAt = busEnd;

    latency_.sample(sim::ticksToNs(busEnd - req.arrival));
    if (req.done)
        eq_.schedule(busEnd, std::move(req.done));

    if (!queue_.empty()) {
        // Next scheduling decision once this transfer's bus slot is known;
        // the next request may overlap bank timing with this one, so allow
        // an immediate re-evaluation.
        scheduleDrain(now + params_.busTransfer);
    }
}

} // namespace sonuma::mem
