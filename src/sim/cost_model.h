// Calibrated virtual-time cost model.
//
// Every operation the Distributed Filaments runtime performs — creating a filament, switching a
// server thread, handling a page fault, processing a UDP message — advances the acting node's
// virtual clock by a constant from this table. The SunIpcEthernet() preset is calibrated from the
// paper's own measurements (Figures 8 and 9 and the §4 application timings) so that the benches
// reproduce the published tables' shape. See DESIGN.md §2 for the calibration notes.
#ifndef DFIL_SIM_COST_MODEL_H_
#define DFIL_SIM_COST_MODEL_H_

#include <cstddef>

#include "src/common/types.h"

namespace dfil::sim {

struct CostModel {
  // --- Filaments package (paper Figure 9) ---
  SimTime filament_create = Microseconds(2.10);
  SimTime filament_switch = Microseconds(0.643);          // descriptor traversal per filament
  SimTime filament_switch_inlined = Microseconds(0.126);  // pattern-recognized strip path
  SimTime thread_context_switch = Microseconds(48.8);     // server (stackful) thread switch
  SimTime thread_create = Microseconds(150.0);            // allocating + initializing a server thread
  SimTime fork_inline = Microseconds(0.30);               // a pruned fork: plain procedure call

  // --- DSM (paper Figure 9: quiet-network page fault = 4.12 ms end to end) ---
  SimTime fault_handle = Microseconds(350.0);   // SIGSEGV delivery, queue insert, request build
  SimTime page_service = Microseconds(250.0);   // owner-side: build reply from page contents
  SimTime page_install = Microseconds(300.0);   // copy-in + mprotect + waking waiters
  SimTime invalidate_handle = Microseconds(150.0);  // apply one invalidation (write-invalidate)
  SimTime page_redirect = Microseconds(60.0);       // answer a request with an owner redirect

  // --- Bulk transfers / prefetching (extension; see DESIGN.md §6) ---
  // A bulk reply charges the full page_service once plus this marginal cost per additional page
  // (the reply build amortizes one software pass over the run), and page_install per page on the
  // requester. A 1-page bulk therefore costs exactly one single-page fault: fault/issue handling
  // + page_service + wire + page_install, with no extra entries charged.
  SimTime bulk_service_extra_page = Microseconds(60.0);
  // Issuing an asynchronous prefetch (hint or detector): request build + queue insert, but no
  // SIGSEGV delivery and no thread suspension, so cheaper than fault_handle.
  SimTime prefetch_issue = Microseconds(150.0);

  // --- Multiple-writer diff protocol (extension; see DESIGN.md §10) ---
  // Twinning copies one page (memcpy + mprotect); encoding compares twin and page and builds the
  // run list; applying patches the runs into the home frame. All software-only page walks on a
  // Sun IPC, so they sit between invalidate_handle and page_install.
  SimTime diff_twin_copy = Microseconds(120.0);
  SimTime diff_encode_page = Microseconds(220.0);
  SimTime diff_apply_page = Microseconds(130.0);

  // --- Messaging (SunOS UDP stack on a Sun IPC) ---
  SimTime msg_send_overhead = Microseconds(620.0);  // syscall + copy + protocol processing
  SimTime msg_recv_overhead = Microseconds(680.0);  // SIGIO + syscall + copy + dispatch
  SimTime timer_overhead = Microseconds(50.0);      // servicing a retransmission timer
  // Marginal cost of adding one more frame to an already-open coalesced datagram (a copy into the
  // pack buffer) and of dispatching one additional unpacked frame on receive (no extra SIGIO or
  // syscall — just header parse + handler dispatch). The first frame of a datagram always pays
  // the full msg_send/recv_overhead.
  SimTime coalesce_frame_send = Microseconds(90.0);
  SimTime coalesce_frame_recv = Microseconds(100.0);

  // --- Network (10 Mb/s shared Ethernet) ---
  double wire_bytes_per_us = 1.25;          // 10 Mb/s
  size_t frame_overhead_bytes = 58;         // Ethernet + IP + UDP headers and preamble
  size_t min_frame_bytes = 64;              // Ethernet minimum frame
  SimTime propagation_delay = Microseconds(5.0);

  // --- Application work costs (per-application calibration, DESIGN.md §2) ---
  SimTime matmul_mac = Microseconds(1.529);       // 512x512x512 macs -> ~205 s sequential
  SimTime jacobi_point = Microseconds(9.257);     // 254*254*360 updates -> ~215 s sequential
  SimTime quad_feval = Microseconds(19.0);        // function evaluation in adaptive quadrature
  SimTime tree_mac = Microseconds(2.115);         // 127 70^3 multiplies -> ~92.1 s sequential
  SimTime loop_iter_overhead = Microseconds(0.05);  // per-element loop bookkeeping in CG/seq code

  // Wire time for a payload of `bytes` (excluding queueing and propagation).
  SimTime WireTime(size_t bytes) const {
    size_t framed = bytes + frame_overhead_bytes;
    if (framed < min_frame_bytes) {
      framed = min_frame_bytes;
    }
    return static_cast<SimTime>(static_cast<double>(framed) / wire_bytes_per_us * 1e3);
  }

  // The calibrated model for the paper's testbed: 8 Sun IPCs on 10 Mb/s Ethernet under SunOS.
  static CostModel SunIpcEthernet() { return CostModel{}; }

  // A faster, lower-latency network (FDDI/ATM-era ablation; paper §1 argues overlap still pays).
  static CostModel SunIpcFastNetwork() {
    CostModel m;
    m.wire_bytes_per_us = 12.5;  // 100 Mb/s
    m.msg_send_overhead = Microseconds(250.0);
    m.msg_recv_overhead = Microseconds(275.0);
    return m;
  }
};

}  // namespace dfil::sim

#endif  // DFIL_SIM_COST_MODEL_H_
