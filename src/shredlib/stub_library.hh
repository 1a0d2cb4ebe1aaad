/**
 * @file
 * Guest-code stub libraries for the two threading backends.
 *
 * The stub library is the guest-visible face of the runtime: a small
 * code region at kStubBase exporting one symbol per API entry point.
 * Workloads `call` these symbols; the MISP flavour forwards to the
 * ShredLib host runtime through RTCALL (and registers the proxy handler
 * through the architectural SEMONITOR instruction), while the OS flavour
 * issues real SYSCALLs for thread operations so the SMP baseline pays
 * the kernel-threading costs the paper compares against.
 *
 * Exported symbols (identical across backends):
 *   rt_init, shred_create, join_all, yield, shred_self,
 *   mutex_lock, mutex_unlock, barrier_wait, sem_wait, sem_post,
 *   cond_wait, cond_signal, cond_broadcast, event_wait, event_set,
 *   malloc, prefault, exit_process
 * plus internal: proxy_stub, ams_entry, shred_done.
 */

#ifndef MISP_SHREDLIB_STUB_LIBRARY_HH
#define MISP_SHREDLIB_STUB_LIBRARY_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "shredlib/rt_abi.hh"

namespace misp::rt {

/** Which runtime backend the stubs forward to. */
enum class Backend {
    Shred, ///< MISP: user-level shreds (ShredRuntime)
    OsThread, ///< SMP baseline: kernel threads (OsApiRuntime)
};

const char *backendName(Backend backend);

/** The stub library program for @p backend, placed at kStubBase. It
 *  is a pure function of the backend, so it is built once per process
 *  (on first use, safely from any thread) and shared by every runtime,
 *  loader and workload builder. */
const isa::Program &stubLibrary(Backend backend);

/** stubLibrary(@p backend)'s encoded bytes, the image every loaded
 *  process maps at kStubBase; encoded once per process with it. */
const std::vector<std::uint8_t> &stubImage(Backend backend);

} // namespace misp::rt

#endif // MISP_SHREDLIB_STUB_LIBRARY_HH
