#include "par/stats.h"

#include <cstdio>

namespace esamr::par {

const char* coll_name(Coll k) {
  switch (k) {
    case Coll::barrier: return "barrier";
    case Coll::bcast: return "bcast";
    case Coll::reduce: return "reduce";
    case Coll::allreduce: return "allreduce";
    case Coll::allgather: return "allgather";
    case Coll::allgatherv: return "allgatherv";
    case Coll::exscan: return "exscan";
    case Coll::alltoall: return "alltoall";
    case Coll::n_kinds: break;
  }
  return "?";
}

CommStats& CommStats::operator+=(const CommStats& o) {
  p2p_sends += o.p2p_sends;
  p2p_send_bytes += o.p2p_send_bytes;
  p2p_recvs += o.p2p_recvs;
  p2p_recv_bytes += o.p2p_recv_bytes;
  isends += o.isends;
  irecvs += o.irecvs;
  requests_drained += o.requests_drained;
  coll_msgs += o.coll_msgs;
  coll_bytes += o.coll_bytes;
  for (int k = 0; k < n_coll_kinds; ++k) {
    coll_calls[static_cast<std::size_t>(k)] += o.coll_calls[static_cast<std::size_t>(k)];
    coll_payload_bytes[static_cast<std::size_t>(k)] +=
        o.coll_payload_bytes[static_cast<std::size_t>(k)];
  }
  corrupt_detected += o.corrupt_detected;
  bytes_verified += o.bytes_verified;
  arq_retained += o.arq_retained;
  arq_acked += o.arq_acked;
  retransmits += o.retransmits;
  arq_healed += o.arq_healed;
  arq_escalations += o.arq_escalations;
  arq_heal_s += o.arq_heal_s;
  recv_blocked_s += o.recv_blocked_s;
  barrier_blocked_s += o.barrier_blocked_s;
  return *this;
}

CommStats& CommStats::operator-=(const CommStats& o) {
  p2p_sends -= o.p2p_sends;
  p2p_send_bytes -= o.p2p_send_bytes;
  p2p_recvs -= o.p2p_recvs;
  p2p_recv_bytes -= o.p2p_recv_bytes;
  isends -= o.isends;
  irecvs -= o.irecvs;
  requests_drained -= o.requests_drained;
  coll_msgs -= o.coll_msgs;
  coll_bytes -= o.coll_bytes;
  for (int k = 0; k < n_coll_kinds; ++k) {
    coll_calls[static_cast<std::size_t>(k)] -= o.coll_calls[static_cast<std::size_t>(k)];
    coll_payload_bytes[static_cast<std::size_t>(k)] -=
        o.coll_payload_bytes[static_cast<std::size_t>(k)];
  }
  corrupt_detected -= o.corrupt_detected;
  bytes_verified -= o.bytes_verified;
  arq_retained -= o.arq_retained;
  arq_acked -= o.arq_acked;
  retransmits -= o.retransmits;
  arq_healed -= o.arq_healed;
  arq_escalations -= o.arq_escalations;
  arq_heal_s -= o.arq_heal_s;
  recv_blocked_s -= o.recv_blocked_s;
  barrier_blocked_s -= o.barrier_blocked_s;
  return *this;
}

std::string summary(const CommStats& s) {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line), "p2p: %lld msgs / %lld B sent, %lld msgs / %lld B recvd\n",
                static_cast<long long>(s.p2p_sends), static_cast<long long>(s.p2p_send_bytes),
                static_cast<long long>(s.p2p_recvs), static_cast<long long>(s.p2p_recv_bytes));
  out += line;
  if (s.isends != 0 || s.irecvs != 0 || s.requests_drained != 0) {
    std::snprintf(line, sizeof(line), "async: %lld isends, %lld irecvs, %lld drained\n",
                  static_cast<long long>(s.isends), static_cast<long long>(s.irecvs),
                  static_cast<long long>(s.requests_drained));
    out += line;
  }
  std::snprintf(line, sizeof(line), "coll wire: %lld msgs / %lld B\n",
                static_cast<long long>(s.coll_msgs), static_cast<long long>(s.coll_bytes));
  out += line;
  for (int k = 0; k < n_coll_kinds; ++k) {
    if (s.coll_calls[static_cast<std::size_t>(k)] == 0) continue;
    std::snprintf(line, sizeof(line), "  %-10s %8lld calls  %12lld payload B\n",
                  coll_name(static_cast<Coll>(k)),
                  static_cast<long long>(s.coll_calls[static_cast<std::size_t>(k)]),
                  static_cast<long long>(s.coll_payload_bytes[static_cast<std::size_t>(k)]));
    out += line;
  }
  std::snprintf(line, sizeof(line), "integrity: %lld B verified, %lld corrupt detected\n",
                static_cast<long long>(s.bytes_verified),
                static_cast<long long>(s.corrupt_detected));
  out += line;
  if (s.retransmits != 0 || s.arq_healed != 0 || s.arq_escalations != 0) {
    std::snprintf(line, sizeof(line), "arq: %lld retransmits, %lld healed, %lld escalated\n",
                  static_cast<long long>(s.retransmits), static_cast<long long>(s.arq_healed),
                  static_cast<long long>(s.arq_escalations));
    out += line;
  }
  std::snprintf(line, sizeof(line), "blocked: %.3f s in recv, %.3f s in barrier\n",
                s.recv_blocked_s, s.barrier_blocked_s);
  out += line;
  return out;
}

}  // namespace esamr::par
