#include "workload/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace rfc {

// ---------------------------------------------------------------------------
// ClosedLoopWorkload: shared buffers, assembly, accounting.
// ---------------------------------------------------------------------------

void
ClosedLoopWorkload::allocCommon(long long terminals, long long win_start,
                                long long win_end, std::uint64_t seed)
{
    if (terminals <= 0)
        throw std::invalid_argument("workload: terminals must be positive");
    terms_ = terminals;
    ws_ = win_start;
    we_ = win_end;
    const std::size_t n = static_cast<std::size_t>(terminals);
    rng_.clear();
    rng_.reserve(n);
    for (std::size_t t = 0; t < n; ++t)
        rng_.emplace_back(deriveSeed(seed, static_cast<std::uint64_t>(t), 0));
    pending_.assign(n, {});
    pending_head_.assign(n, 0);
    assembly_.assign(n, {});
    msgs_created_.assign(n, 0);
    msgs_delivered_.assign(n, 0);
    pkts_created_.assign(n, 0);
    pkts_received_.assign(n, 0);
}

void
ClosedLoopWorkload::push(long long t, long long dest, int packets,
                         std::uint32_t tag)
{
    const std::size_t i = static_cast<std::size_t>(t);
    pending_[i].push_back(Msg{static_cast<std::int32_t>(dest),
                              static_cast<std::int32_t>(packets), tag});
    ++msgs_created_[i];
    pkts_created_[i] += packets;
}

bool
ClosedLoopWorkload::flush(long long t, WorkloadPort &port, WorkloadStats &st)
{
    const std::size_t i = static_cast<std::size_t>(t);
    std::vector<Msg> &buf = pending_[i];
    std::uint32_t &head = pending_head_[i];
    while (head < buf.size()) {
        const Msg &m = buf[head];
        if (!port.send(t, m.dest, m.packets, m.tag))
            return false;
        ++st.messages_sent;
        switch (tagKind(m.tag)) {
        case kReq:
            ++st.requests_sent;
            break;
        case kResp:
            ++st.responses_sent;
            break;
        default:
            break;
        }
        ++head;
    }
    buf.clear();
    head = 0;
    return true;
}

bool
ClosedLoopWorkload::receive(long long t, long long src, std::uint32_t tag)
{
    const std::size_t i = static_cast<std::size_t>(t);
    ++pkts_received_[i];
    const int need = tagPackets(tag);
    if (need <= 1) {
        ++msgs_delivered_[i];
        return true;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src) << 2) |
        static_cast<std::uint64_t>(tagKind(tag));
    std::vector<Assembly> &asm_list = assembly_[i];
    for (std::size_t k = 0; k < asm_list.size(); ++k) {
        Assembly &a = asm_list[k];
        if (a.key != key)
            continue;
        if (++a.got < a.need)
            return false;
        a = asm_list.back();
        asm_list.pop_back();
        ++msgs_delivered_[i];
        return true;
    }
    asm_list.push_back(Assembly{key, 1, need});
    return false;
}

long long
ClosedLoopWorkload::expGap(Rng &rng, double mean) const
{
    // -log1p(-u) with u in [0, 1) avoids log(0); +1 keeps every draw
    // strictly positive so a timer is always in the future.
    const double u = rng.uniformReal();
    return 1 + static_cast<long long>(-std::log1p(-u) * mean);
}

WorkloadAccount
ClosedLoopWorkload::account() const
{
    WorkloadAccount a;
    for (std::size_t i = 0; i < msgs_created_.size(); ++i) {
        a.msgs_created += msgs_created_[i];
        a.msgs_delivered += msgs_delivered_[i];
        a.pkts_created += pkts_created_[i];
        a.pkts_received += pkts_received_[i];
        for (std::size_t k = pending_head_[i]; k < pending_[i].size(); ++k)
            a.pkts_pending += pending_[i][k].packets;
    }
    return a;
}

// ---------------------------------------------------------------------------
// RequestResponseWorkload: RPC fan-out and incast waves.
// ---------------------------------------------------------------------------

RequestResponseWorkload::RequestResponseWorkload(Params p) : p_(p)
{
    if (p_.fanout < 1)
        throw std::invalid_argument("workload: fanout must be >= 1");
    if (p_.req_packets < 1 || p_.resp_packets < 1)
        throw std::invalid_argument("workload: packets per message >= 1");
    if (!(p_.think_mean >= 1.0))
        throw std::invalid_argument("workload: think_mean must be >= 1");
}

std::string
RequestResponseWorkload::name() const
{
    return p_.incast ? "incast" : "rpc";
}

void
RequestResponseWorkload::init(long long terminals, long long win_start,
                              long long win_end, std::uint64_t seed)
{
    allocCommon(terminals, win_start, win_end, seed);
    const std::size_t n = static_cast<std::size_t>(terminals);
    is_client_.assign(n, 0);
    workers_.assign(n, {});
    outstanding_.assign(n, 0);
    started_.assign(n, -1);
    timer_.assign(n, -1);
    if (p_.incast) {
        // Seeded random partition into aggregator + fanin workers;
        // terminals that do not fill a whole group stay idle.
        std::vector<std::int32_t> perm(n);
        for (std::size_t t = 0; t < n; ++t)
            perm[t] = static_cast<std::int32_t>(t);
        Rng group_rng(deriveSeed(seed, 1, 0));
        group_rng.shuffle(perm);
        const std::size_t gsz = static_cast<std::size_t>(p_.fanout) + 1;
        for (std::size_t base = 0; base + gsz <= n; base += gsz) {
            const std::int32_t agg = perm[base];
            is_client_[static_cast<std::size_t>(agg)] = 1;
            timer_[static_cast<std::size_t>(agg)] = -2;
            std::vector<std::int32_t> &w =
                workers_[static_cast<std::size_t>(agg)];
            w.assign(perm.begin() + static_cast<std::ptrdiff_t>(base) + 1,
                     perm.begin() + static_cast<std::ptrdiff_t>(base + gsz));
        }
        fanout_eff_ = p_.fanout;
    } else {
        fanout_eff_ = static_cast<int>(
            std::min<long long>(p_.fanout, terminals - 1));
        if (fanout_eff_ >= 1) {
            for (std::size_t t = 0; t < n; ++t) {
                is_client_[t] = 1;
                timer_[t] = -2;
            }
        }
    }
}

void
RequestResponseWorkload::startRequest(long long t, long long now)
{
    const std::size_t i = static_cast<std::size_t>(t);
    started_[i] = now;
    timer_[i] = -1;
    const std::uint32_t tag = makeTag(kReq, p_.req_packets);
    if (p_.incast) {
        for (std::int32_t w : workers_[i])
            push(t, w, p_.req_packets, tag);
        outstanding_[i] = static_cast<std::int32_t>(workers_[i].size());
    } else {
        // fanout_eff_ distinct servers != t, by rejection sampling on a
        // local scratch.
        std::vector<std::int32_t> picked;
        picked.reserve(static_cast<std::size_t>(fanout_eff_));
        Rng &rng = rngOf(t);
        int got = 0;
        while (got < fanout_eff_) {
            const long long s =
                static_cast<long long>(rng.uniform(
                    static_cast<std::uint64_t>(terms_ - 1)));
            const long long dest = s >= t ? s + 1 : s;
            bool dup = false;
            for (std::int32_t prev : picked)
                if (prev == static_cast<std::int32_t>(dest))
                    dup = true;
            if (dup)
                continue;
            picked.push_back(static_cast<std::int32_t>(dest));
            ++got;
            push(t, dest, p_.req_packets, tag);
        }
        outstanding_[i] = fanout_eff_;
    }
}

void
RequestResponseWorkload::pump(long long t, long long now, WorkloadPort &port,
                              WorkloadStats &st)
{
    const std::size_t i = static_cast<std::size_t>(t);
    bool drained = flush(t, port, st);
    if (drained && timer_[i] >= 0 && timer_[i] <= now) {
        startRequest(t, now);
        drained = flush(t, port, st);
    }
    // One wake timer per terminal: the earliest thing we are waiting
    // for is either the backlog retry (next cycle) or the think timer.
    if (!drained)
        port.wakeAt(t, now + 1);
    else if (timer_[i] >= 0)
        port.wakeAt(t, timer_[i]);
}

void
RequestResponseWorkload::onWake(long long term, long long now,
                                WorkloadPort &port, WorkloadStats &st)
{
    const std::size_t i = static_cast<std::size_t>(term);
    if (timer_[i] == -2) {
        // Initial wake at cycle 0: stagger clients across roughly one
        // think time so waves do not start in lockstep.
        const long long span = std::max<long long>(
            1, static_cast<long long>(p_.think_mean));
        timer_[i] = now + 1 +
                    static_cast<long long>(rngOf(term).uniform(
                        static_cast<std::uint64_t>(span)));
    }
    pump(term, now, port, st);
}

void
RequestResponseWorkload::onDeliver(long long term, long long src,
                                   std::uint32_t tag, long long gen,
                                   long long done, long long now,
                                   WorkloadPort &port, WorkloadStats &st)
{
    const std::size_t i = static_cast<std::size_t>(term);
    if (receive(term, src, tag)) {
        ++st.flows_done_all;
        if (inWindow(done)) {
            ++st.flows_done;
            const double fct = static_cast<double>(done - gen);
            st.fct_sum += fct;
            st.fct_hist.add(done - gen);
        }
        if (tagKind(tag) == kReq) {
            push(term, src, p_.resp_packets, makeTag(kResp, p_.resp_packets));
        } else if (outstanding_[i] > 0 && --outstanding_[i] == 0) {
            ++st.rpcs_done_all;
            if (inWindow(done)) {
                ++st.rpcs_done;
                const double lat = static_cast<double>(done - started_[i]);
                st.rpc_sum += lat;
                st.rpc_hist.add(done - started_[i]);
            }
            timer_[i] = now + expGap(rngOf(term), p_.think_mean);
        }
    }
    pump(term, now, port, st);
}

// ---------------------------------------------------------------------------
// CoflowWorkload: all-to-all phases gated on the slowest flow.
// ---------------------------------------------------------------------------

CoflowWorkload::CoflowWorkload(Params p) : p_(p)
{
    if (p_.group < 2)
        throw std::invalid_argument("workload: coflow group must be >= 2");
    if (p_.flow_packets < 1)
        throw std::invalid_argument("workload: flow_packets must be >= 1");
}

void
CoflowWorkload::init(long long terminals, long long win_start,
                     long long win_end, std::uint64_t seed)
{
    allocCommon(terminals, win_start, win_end, seed);
    const std::size_t n = static_cast<std::size_t>(terminals);
    peers_.assign(n, {});
    participants_.clear();
    sent_phase_.assign(n, -1);
    recv_done_.assign(n, 0);
    last_done_.assign(n, 0);
    phase_ = 0;
    phase_start_ = 0;
    flows_expected_ = 0;
    std::vector<std::int32_t> perm(n);
    for (std::size_t t = 0; t < n; ++t)
        perm[t] = static_cast<std::int32_t>(t);
    Rng group_rng(deriveSeed(seed, 1, 0));
    group_rng.shuffle(perm);
    const std::size_t gsz = static_cast<std::size_t>(p_.group);
    for (std::size_t base = 0; base + gsz <= n; base += gsz) {
        for (std::size_t k = 0; k < gsz; ++k) {
            const std::int32_t t = perm[base + k];
            participants_.push_back(t);
            std::vector<std::int32_t> &pe =
                peers_[static_cast<std::size_t>(t)];
            pe.reserve(gsz - 1);
            for (std::size_t j = 0; j < gsz; ++j)
                if (j != k)
                    pe.push_back(perm[base + j]);
        }
        flows_expected_ +=
            static_cast<long long>(gsz) * static_cast<long long>(gsz - 1);
    }
}

void
CoflowWorkload::onWake(long long term, long long now, WorkloadPort &port,
                       WorkloadStats &st)
{
    const std::size_t i = static_cast<std::size_t>(term);
    if (peers_[i].empty())
        return;  // idle leftover terminal
    if (sent_phase_[i] != phase_) {
        sent_phase_[i] = phase_;
        const std::uint32_t tag = makeTag(kFlow, p_.flow_packets);
        for (std::int32_t peer : peers_[i])
            push(term, peer, p_.flow_packets, tag);
    }
    if (!flush(term, port, st))
        port.wakeAt(term, now + 1);
}

void
CoflowWorkload::onDeliver(long long term, long long src, std::uint32_t tag,
                          long long gen, long long done, long long now,
                          WorkloadPort &port, WorkloadStats &st)
{
    const std::size_t i = static_cast<std::size_t>(term);
    if (receive(term, src, tag)) {
        ++st.flows_done_all;
        if (inWindow(done)) {
            ++st.flows_done;
            const double fct = static_cast<double>(done - gen);
            st.fct_sum += fct;
            st.fct_hist.add(done - gen);
        }
        ++recv_done_[i];
        last_done_[i] = std::max(last_done_[i], done);
        port.signalGlobal();
    }
    if (hasPending(term) && !flush(term, port, st))
        port.wakeAt(term, now + 1);
}

void
CoflowWorkload::onGlobalStep(long long now, WorkloadPort &port,
                             WorkloadStats &st)
{
    if (flows_expected_ == 0)
        return;
    long long got = 0;
    for (long long t : participants_)
        got += recv_done_[static_cast<std::size_t>(t)];
    if (got < flows_expected_)
        return;
    long long finish = 0;
    for (long long t : participants_) {
        const std::size_t i = static_cast<std::size_t>(t);
        finish = std::max(finish, last_done_[i]);
        recv_done_[i] = 0;
        last_done_[i] = 0;
    }
    ++st.coflow_phases_all;
    if (inWindow(finish))
        st.ccts.push_back(static_cast<double>(finish - phase_start_));
    ++phase_;
    phase_start_ = now + 1;
    for (long long t : participants_)
        port.wakeAt(t, now + 1);
}

// ---------------------------------------------------------------------------
// WorkloadSpec / makeWorkload.
// ---------------------------------------------------------------------------

std::string
WorkloadSpec::label() const
{
    std::ostringstream os;
    if (kind == "rpc") {
        os << "rpc(f" << fanout << ',' << req_packets << ':' << resp_packets
           << ",t" << static_cast<long long>(think_mean) << ')';
    } else if (kind == "incast") {
        os << "incast(f" << fanin << ',' << req_packets << ':'
           << resp_packets << ",t" << static_cast<long long>(think_mean)
           << ')';
    } else if (kind == "coflow") {
        os << "coflow(g" << group << ",p" << flow_packets << ')';
    } else {
        os << kind;
    }
    return os.str();
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec, double load)
{
    if (!(load > 0.0) || load > 1.0)
        throw std::invalid_argument("makeWorkload: load must be in (0, 1]");
    if (spec.kind == "rpc" || spec.kind == "incast") {
        RequestResponseWorkload::Params p;
        p.incast = spec.kind == "incast";
        p.fanout = p.incast ? spec.fanin : spec.fanout;
        p.req_packets = spec.req_packets;
        p.resp_packets = spec.resp_packets;
        p.think_mean = std::max(1.0, spec.think_mean / load);
        return std::make_unique<RequestResponseWorkload>(p);
    }
    if (spec.kind == "coflow") {
        CoflowWorkload::Params p;
        p.group = spec.group;
        p.flow_packets = static_cast<int>(std::max<long long>(
            1, std::llround(spec.flow_packets * load)));
        return std::make_unique<CoflowWorkload>(p);
    }
    throw std::invalid_argument("makeWorkload: unknown kind '" + spec.kind +
                                "'");
}

} // namespace rfc
