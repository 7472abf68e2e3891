#include "noc/router.hpp"

#include <bit>

#include <cassert>

#include "arb/basic_arbiters.hpp"
#include "arb/inverse_weighted.hpp"
#include "debug/checkpoint.hpp"

namespace anton2 {

std::unique_ptr<Arbiter>
makeArbiter(ArbPolicy policy, int num_inputs, int weight_bits)
{
    switch (policy) {
      case ArbPolicy::RoundRobin:
        return std::make_unique<RoundRobinArbiter>(num_inputs);
      case ArbPolicy::InverseWeighted:
        return std::make_unique<InverseWeightedArbiter>(num_inputs,
                                                        weight_bits);
      case ArbPolicy::AgeBased:
        return std::make_unique<AgeBasedArbiter>(num_inputs);
    }
    return nullptr;
}

Router::Router(std::string name, const RouterConfig &cfg, RouteFn route_fn)
    : Component(std::move(name)),
      cfg_(cfg),
      route_fn_(std::move(route_fn)),
      in_(static_cast<std::size_t>(cfg.num_ports)),
      out_(static_cast<std::size_t>(cfg.num_ports)),
      sa1_winner_(static_cast<std::size_t>(cfg.num_ports), -1)
{
    for (auto &ip : in_) {
        ip.vcs.resize(static_cast<std::size_t>(cfg.num_vcs));
        for (auto &vc : ip.vcs)
            vc.init(cfg.buf_flits_per_vc);
    }
    for (int p = 0; p < cfg.num_ports; ++p) {
        // SA1 arbitrates among this input's VCs; SA2 among input ports.
        // SA1 fairness is secondary (round-robin suffices); SA2 is where
        // the inverse-weighted policy applies (Section 3).
        sa1_.push_back(std::make_unique<RoundRobinArbiter>(cfg.num_vcs));
        sa2_.push_back(makeArbiter(cfg.out_arb, cfg.num_ports,
                                   cfg.weight_bits));
    }
}

void
Router::bindMetrics(MetricsRegistry &reg, const std::string &prefix)
{
    metrics_ = std::make_unique<RouterMetrics>();
    // The per-port and per-VC breakdowns are the O(routers x VCs) term
    // in the registry footprint; below Full they collapse into shared
    // aggregates (all port slots alias one counter; per_vc_occupancy
    // stays empty and the record site skips it). At Chip/Machine level
    // the caller additionally passes one shared prefix per chip, so all
    // sixteen routers of a chip record into the same metric set.
    if (reg.level() >= MetricsLevel::Full) {
        for (int p = 0; p < cfg_.num_ports; ++p) {
            metrics_->in_flits.push_back(&reg.counter(
                prefix + ".flits_in.port" + std::to_string(p)));
        }
    } else {
        Counter &agg = reg.counter(prefix + ".flits_in");
        metrics_->in_flits.assign(
            static_cast<std::size_t>(cfg_.num_ports), &agg);
    }
    metrics_->sa2_grants = &reg.counter(prefix + ".sa2.grants");
    metrics_->sa2_losses = &reg.counter(prefix + ".sa2.losses");
    metrics_->va_credit_stalls =
        &reg.counter(prefix + ".va.credit_stalls");
    metrics_->vc_occupancy = &reg.scalar(prefix + ".vc_occupancy");
    if (reg.level() >= MetricsLevel::Full) {
        for (int v = 0; v < cfg_.num_vcs; ++v) {
            metrics_->per_vc_occupancy.push_back(
                &reg.scalar(prefix + ".vc." + std::to_string(v)
                            + ".occupancy"));
        }
    }
}

void
Router::bindObservers(ObserverBus &bus, std::int32_t node,
                      std::int16_t unit, FlowSite flow)
{
    obs_ = ObsBinding{ &bus, node, unit, flow };
}

void
Router::enableStallSampling()
{
    if (stalls_ == nullptr)
        stalls_ = std::make_unique<RouterStallSampler>(cfg_.num_ports);
}

void
Router::onIdleSkip(Cycle skipped)
{
    // A skipped tick of an empty router: nothing sent, nothing arriving
    // (quiet wires are the sleep condition), one sample.
    if (stalls_ == nullptr)
        return;
    st_sent_mask_ = 0;
    sampleStalls(skipped);
}

void
Router::connectIn(int port, Channel &ch)
{
    in_[static_cast<std::size_t>(port)].ch = &ch;
    ch.data.setReceiver(*this);
}

void
Router::connectOut(int port, Channel &ch, int downstream_buf_flits)
{
    auto &op = out_[static_cast<std::size_t>(port)];
    op.ch = &ch;
    op.credits.init(cfg_.num_vcs, downstream_buf_flits);
    ch.credit.setReceiver(*this);
}

InverseWeightedArbiter *
Router::outputArbiter(int port)
{
    return dynamic_cast<InverseWeightedArbiter *>(
        sa2_[static_cast<std::size_t>(port)].get());
}

void
Router::receive(Cycle now)
{
    for (auto &op : out_) {
        if (op.ch == nullptr)
            continue;
        if (auto cr = op.ch->credit.take(now))
            op.credits.release(cr->vc);
    }
    for (std::size_t p = 0; p < in_.size(); ++p) {
        auto &ip = in_[p];
        if (ip.ch == nullptr)
            continue;
        if (auto phit = ip.ch->data.take(now)) {
            if (phit->head) {
                ++buffered_packets_;
                ip.nonempty |= 1u << phit->vc;
                ip.rc_work |= 1u << phit->vc;
            }
            if (energy_ != nullptr)
                energy_->onFlit(static_cast<int>(p), phit->payload, now);
            ip.vcs[phit->vc].acceptFlit(std::move(*phit), now);
            if (metrics_ != nullptr)
                metrics_->in_flits[p]->inc();
            ++flits_routed_;
        }
    }
}

void
Router::stageRc(Cycle now)
{
    // Two-deep lookahead: the packet behind the head proceeds through RC
    // and VA while the head drains, so back-to-back packets on one VC do
    // not restart the pipeline. Only the first four entries are looked
    // at, so an entry further back has never been routed.
    for (auto &ip : in_) {
        for (std::uint32_t mask = ip.rc_work; mask != 0; mask &= mask - 1) {
            const int v = std::countr_zero(mask);
            auto &vc = ip.vcs[static_cast<std::size_t>(v)];
            const std::size_t depth = std::min<std::size_t>(
                vc.packetCount(), 4);
            bool unrouted = vc.packetCount() > depth;
            for (std::size_t i = 0; i < depth; ++i) {
                auto &entry = vc.entry(i);
                if (entry.routed)
                    continue;
                if (now <= entry.head_at) {
                    unrouted = true;
                    continue;
                }
                const RouteDecision d = route_fn_(*entry.pkt);
                assert(d.out_port >= 0 && d.out_port < cfg_.num_ports);
                assert(out_[static_cast<std::size_t>(d.out_port)].ch
                       != nullptr);
                entry.out_port = d.out_port;
                entry.out_vc = d.out_vc;
                entry.routed = true;
                entry.routed_at = now;
                ip.va_work |= 1u << v;
                tracePacketEvent(obs_, TraceUnitKind::Router,
                                 TraceEventType::RouteComputed, now,
                                 entry.pkt->id, d.out_port, d.out_vc);
            }
            if (!unrouted)
                ip.rc_work &= ~(1u << v);
        }
    }
}

void
Router::stageVa(Cycle now)
{
    for (auto &ip : in_) {
        for (std::uint32_t mask = ip.va_work; mask != 0; mask &= mask - 1) {
            const int v = std::countr_zero(mask);
            auto &vc = ip.vcs[static_cast<std::size_t>(v)];
            const std::size_t depth = std::min<std::size_t>(
                vc.packetCount(), 4);
            bool waiting = false;
            for (std::size_t i = 0; i < depth; ++i) {
                auto &entry = vc.entry(i);
                if (!entry.routed || entry.va_done)
                    continue;
                if (now <= entry.routed_at) {
                    waiting = true;
                    continue;
                }
                const auto &op =
                    out_[static_cast<std::size_t>(entry.out_port)];
                if (op.credits.available(entry.out_vc)
                    >= entry.pkt->size_flits) {
                    entry.va_done = true;
                    entry.va_at = now;
                    if (i == 0)
                        ip.sa_work |= 1u << v;
                    tracePacketEvent(obs_, TraceUnitKind::Router,
                                     TraceEventType::VcAllocated, now,
                                     entry.pkt->id, entry.out_port,
                                     entry.out_vc);
                } else {
                    waiting = true;
                    if (metrics_ != nullptr && i == 0)
                        metrics_->va_credit_stalls->inc();
                }
            }
            if (!waiting)
                ip.va_work &= ~(1u << v);
        }
    }
}

void
Router::stageSa1(Cycle now)
{
    for (std::size_t p = 0; p < in_.size(); ++p) {
        auto &ip = in_[p];
        sa1_winner_[p] = -1;
        if (ip.draining)
            continue;
        std::uint32_t req = 0;
        for (std::uint32_t mask = ip.sa_work; mask != 0; mask &= mask - 1) {
            const auto v = static_cast<std::size_t>(
                std::countr_zero(mask));
            if (now > ip.vcs[v].head().va_at)
                req |= 1u << v;
        }
        if (req != 0)
            sa1_winner_[p] = sa1_[p]->pick(req, nullptr);
    }
}

void
Router::stageSa2(Cycle now)
{
    // Each SA1 winner requests exactly one output (its head's route), so
    // one pass over the inputs builds every output's request mask. A
    // grant at an output only retires requests for that same output
    // (the winner's, and that output's credits), so granting in
    // ascending output order afterwards equals re-scanning the inputs
    // for every output.
    std::uint32_t req[kRouterPorts] = {};
    std::uint32_t outs = 0;
    ReqInfo info[kRouterPorts];
    for (std::size_t p = 0; p < in_.size(); ++p) {
        const int v = sa1_winner_[p];
        if (v < 0 || in_[p].draining)
            continue;
        const auto &vcbuf = in_[p].vcs[static_cast<std::size_t>(v)];
        // Re-validate: the SA1 pick is a cycle old and the head may
        // have been popped or granted since.
        if (vcbuf.empty())
            continue;
        const auto &head = vcbuf.head();
        if (!head.va_done || head.granted)
            continue;
        const auto o = static_cast<std::size_t>(head.out_port);
        const auto &op = out_[o];
        if (op.ch == nullptr || op.busy)
            continue;
        // Re-validate credits at grant time: VA eligibility may be
        // stale if an earlier grant consumed the slots.
        if (op.credits.available(head.out_vc) < head.pkt->size_flits)
            continue;
        req[o] |= 1u << p;
        outs |= 1u << o;
        info[p].pattern = head.pkt->pattern;
        info[p].age = head.pkt->birth;
    }

    for (; outs != 0; outs &= outs - 1) {
        const auto o = static_cast<std::size_t>(std::countr_zero(outs));
        auto &op = out_[o];
        const int winner = sa2_[o]->pick(req[o], info);
        assert(winner >= 0);
        if (metrics_ != nullptr) {
            metrics_->sa2_grants->inc();
            metrics_->sa2_losses->inc(
                static_cast<std::uint64_t>(std::popcount(req[o])) - 1);
        }
        const auto w = static_cast<std::size_t>(winner);
        auto &ip = in_[w];
        const int v = sa1_winner_[w];
        auto &head = ip.vcs[static_cast<std::size_t>(v)].head();
        head.granted = true;
        head.granted_at = now;
        ip.sa_work &= ~(1u << v);
        tracePacketEvent(obs_, TraceUnitKind::Router,
                         TraceEventType::SwitchGrant, now, head.pkt->id,
                         static_cast<int>(o), head.out_vc);
        op.busy = true;
        op.src_port = winner;
        op.src_vc = v;
        op.out_vc = head.out_vc;
        op.credits.consume(head.out_vc, head.pkt->size_flits);
        ip.draining = true;
        sa1_winner_[w] = -1;
    }
}

void
Router::stageSt(Cycle now)
{
    for (std::size_t o = 0; o < out_.size(); ++o) {
        auto &op = out_[o];
        if (!op.busy)
            continue;
        auto &ip = in_[static_cast<std::size_t>(op.src_port)];
        auto &vcbuf = ip.vcs[static_cast<std::size_t>(op.src_vc)];
        auto &head = vcbuf.head();
        if (head.sent >= head.arrived)
            continue; // cut-through: tail not yet arrived
        st_sent_mask_ |= 1u << o;

        const bool tail = head.sent + 1 == head.pkt->size_flits;
        Phit phit;
        phit.pkt = head.pkt;
        phit.vc = op.out_vc;
        phit.index = head.sent;
        phit.head = (head.sent == 0);
        phit.tail = tail;
        phit.payload = head.pkt->payload[head.sent];
        op.ch->data.send(now, std::move(phit));

        ip.ch->credit.send(now, Credit{ static_cast<std::uint8_t>(
                                    op.src_vc) });
        vcbuf.sendFlit();

        if (tail) {
            // Account the hop while the entry's pipeline timestamps
            // are still live (every cycle below is existing state - no
            // clock is read for the probe).
            obs_.flow.hop(*head.pkt, head.head_at, head.granted_at, now,
                          static_cast<int>(o), op.out_vc);
            vcbuf.popHead(now);
            const std::uint32_t bit = 1u << op.src_vc;
            if (vcbuf.empty())
                ip.nonempty &= ~bit;
            // The next packet may already be VC-allocated (lookahead).
            if (!vcbuf.empty() && vcbuf.head().va_done)
                ip.sa_work |= bit;
            else
                ip.sa_work &= ~bit;
            --buffered_packets_;
            op.busy = false;
            op.src_port = -1;
            ip.draining = false;
        }
    }
}

/**
 * Attribute this cycle (or @p cycles identical idle ones) for every
 * connected output port. Called once per tick after the pipeline stages
 * (so the sent mask and grant state are final); exactly one class is
 * counted per port, which is what makes the per-port totals sum to the
 * sampled cycle count.
 */
void
Router::sampleStalls(std::uint64_t cycles)
{
    stalls_->sampled_cycles += cycles;
    for (std::size_t o = 0; o < out_.size(); ++o) {
        const auto &op = out_[o];
        if (op.ch == nullptr)
            continue;
        StallClass cls;
        if ((st_sent_mask_ >> o) & 1u) {
            cls = StallClass::Busy;
        } else if (op.busy) {
            // Granted but no flit this cycle: the cut-through gap.
            cls = StallClass::LinkBusy;
        } else {
            bool any = false;
            bool ready = false;
            for (const auto &ip : in_) {
                for (std::uint32_t mask = ip.nonempty; mask != 0;
                     mask &= mask - 1) {
                    const auto &head =
                        ip.vcs[static_cast<std::size_t>(
                                   std::countr_zero(mask))]
                            .head();
                    if (!head.routed || head.granted
                        || head.out_port != static_cast<int>(o))
                        continue;
                    any = true;
                    if (op.credits.available(head.out_vc)
                        >= head.pkt->size_flits)
                        ready = true;
                }
            }
            cls = !any ? StallClass::NoInput
                       : (ready ? StallClass::ArbLoss
                                : StallClass::CreditStall);
        }
        stalls_->ports[o].cycles[static_cast<std::size_t>(cls)] += cycles;
    }
}

void
Router::tick(Cycle now)
{
    st_sent_mask_ = 0;
    receive(now);
    if (buffered_packets_ == 0) {
        // Nothing buffered: the pipeline stages have no work, but the
        // stall sampler still owes this cycle (all ports: no input). An
        // idle router whose wires are quiet sleeps either way; its
        // sampler catches up in onIdleSkip().
        if (stalls_ != nullptr)
            sampleStalls();
        if (!wiresBusy())
            sleep(now);
        return;
    }
    if (metrics_ != nullptr) {
        const bool per_vc = !metrics_->per_vc_occupancy.empty();
        int total = 0;
        for (int v = 0; v < cfg_.num_vcs; ++v) {
            int occ = 0;
            for (const auto &ip : in_)
                occ += ip.vcs[static_cast<std::size_t>(v)].occupancy();
            if (per_vc)
                metrics_->per_vc_occupancy[static_cast<std::size_t>(v)]
                    ->add(occ);
            total += occ;
        }
        metrics_->vc_occupancy->add(total);
    }
    stageRc(now);
    stageVa(now);
    // SA2 consumes the SA1 winners registered in the previous cycle, so
    // SA1 and SA2 are distinct pipeline stages as in Figure 12. SA1 runs
    // after ST so that an input port freed by a departing tail flit can
    // nominate its next packet in the same cycle (no turnaround bubble).
    stageSa2(now);
    stageSt(now);
    stageSa1(now);
    if (stalls_ != nullptr)
        sampleStalls();
}

void
Router::rebuildWorkMasks(InPort &ip)
{
    ip.rc_work = ip.va_work = ip.sa_work = 0;
    for (std::size_t v = 0; v < ip.vcs.size(); ++v) {
        const VcBuffer &vc = ip.vcs[v];
        const std::uint32_t bit = 1u << v;
        for (std::size_t i = 0; i < vc.packetCount(); ++i) {
            const auto &e = vc.entry(i);
            if (!e.routed)
                ip.rc_work |= bit;
            else if (!e.va_done)
                ip.va_work |= bit;
        }
        if (!vc.empty() && vc.head().va_done && !vc.head().granted)
            ip.sa_work |= bit;
    }
}

bool
Router::wiresBusy() const
{
    for (const auto &ip : in_) {
        if (ip.ch != nullptr && ip.ch->busy())
            return true;
    }
    for (const auto &op : out_) {
        if (op.ch != nullptr && op.ch->busy())
            return true;
    }
    return false;
}

bool
Router::busy() const
{
    for (const auto &ip : in_) {
        for (const auto &vc : ip.vcs) {
            if (!vc.empty())
                return true;
        }
        if (ip.ch != nullptr && ip.ch->busy())
            return true;
    }
    for (const auto &op : out_) {
        if (op.busy)
            return true;
    }
    return false;
}

std::uint64_t
Router::bufferedFlits() const
{
    std::uint64_t total = 0;
    for (const auto &ip : in_) {
        for (const auto &vc : ip.vcs)
            total += static_cast<std::uint64_t>(vc.occupancy());
    }
    return total;
}

std::uint64_t
Router::creditsAvailable() const
{
    std::uint64_t total = 0;
    for (const auto &op : out_) {
        if (op.ch != nullptr)
            total += static_cast<std::uint64_t>(op.credits.totalAvailable());
    }
    return total;
}

int
Router::outReservedFlits(int port, int vc) const
{
    const auto &op = out_[port];
    if (!op.busy || static_cast<int>(op.out_vc) != vc)
        return 0;
    const auto &entry =
        in_[op.src_port].vcs[static_cast<std::size_t>(op.src_vc)].head();
    return entry.pkt->size_flits - static_cast<int>(entry.sent);
}

Cycle
Router::oldestBirth() const
{
    Cycle oldest = kNoCycle;
    for (const auto &ip : in_) {
        for (const auto &vc : ip.vcs) {
            for (std::size_t i = 0; i < vc.packetCount(); ++i) {
                const Cycle b = vc.entry(i).pkt->birth;
                if (b < oldest)
                    oldest = b;
            }
        }
    }
    return oldest;
}

void
Router::collectBlockedHeads(std::vector<BlockedHead> &out) const
{
    for (std::size_t p = 0; p < in_.size(); ++p) {
        const auto &ip = in_[p];
        for (std::size_t v = 0; v < ip.vcs.size(); ++v) {
            const auto &buf = ip.vcs[v];
            if (buf.empty())
                continue;
            const auto &e = buf.head();
            // A routed head that is not yet granted and would fail the
            // VA/SA2 credit test is waiting on a downstream resource; an
            // unrouted or granted head is making progress this cycle.
            if (!e.routed || e.granted)
                continue;
            const auto &op = out_[e.out_port];
            if (op.ch == nullptr
                || op.credits.available(e.out_vc) >= e.pkt->size_flits)
                continue;
            BlockedHead b;
            b.in_port = static_cast<int>(p);
            b.in_vc = static_cast<int>(v);
            b.out_port = e.out_port;
            b.out_vc = e.out_vc;
            b.pkt = e.pkt;
            out.push_back(std::move(b));
        }
    }
}

void
Router::saveState(CkptWriter &w) const
{
    w.tag("router");
    for (const InPort &ip : in_) {
        w.b(ip.ch != nullptr);
        if (ip.ch == nullptr)
            continue;
        for (const VcBuffer &vc : ip.vcs)
            vc.saveState(w);
        w.u32(ip.nonempty);
        w.b(ip.draining);
    }
    for (const OutPort &op : out_) {
        w.b(op.ch != nullptr);
        if (op.ch == nullptr)
            continue;
        op.credits.saveState(w);
        w.b(op.busy);
        w.i32(op.src_port);
        w.i32(op.src_vc);
        w.u8(op.out_vc);
    }
    for (const auto &a : sa1_)
        a->saveState(w);
    for (const auto &a : sa2_)
        a->saveState(w);
    for (int v : sa1_winner_)
        w.i32(v);
    w.u32(st_sent_mask_);
    w.u64(flits_routed_);
    w.i32(buffered_packets_);
}

void
Router::loadState(CkptReader &r)
{
    r.expect("router");
    for (InPort &ip : in_) {
        const bool connected = r.b();
        if (connected != (ip.ch != nullptr))
            throw CheckpointError("checkpoint: router input wiring "
                                  "mismatch");
        if (ip.ch == nullptr)
            continue;
        for (VcBuffer &vc : ip.vcs)
            vc.loadState(r);
        ip.nonempty = r.u32();
        ip.draining = r.b();
        rebuildWorkMasks(ip);
    }
    for (OutPort &op : out_) {
        const bool connected = r.b();
        if (connected != (op.ch != nullptr))
            throw CheckpointError("checkpoint: router output wiring "
                                  "mismatch");
        if (op.ch == nullptr)
            continue;
        op.credits.loadState(r);
        op.busy = r.b();
        op.src_port = r.i32();
        op.src_vc = r.i32();
        op.out_vc = r.u8();
    }
    for (auto &a : sa1_)
        a->loadState(r);
    for (auto &a : sa2_)
        a->loadState(r);
    for (int &v : sa1_winner_)
        v = r.i32();
    st_sent_mask_ = r.u32();
    flits_routed_ = r.u64();
    buffered_packets_ = r.i32();
}

} // namespace anton2
