#include "loader.hh"

namespace misp::harness {

LoadedProcess
loadApp(arch::MispSystem &system, const GuestApp &app, rt::Backend backend,
        const std::vector<int> &affinity)
{
    os::Kernel &kernel = system.kernel();
    os::Process *proc = kernel.createProcess(app.name);
    mem::AddressSpace &as = proc->addressSpace();

    // Code: the workload program (read-only, demand-paged).
    as.defineRegion(app.program.base, app.program.byteSize(),
                    /*writable=*/false, "code", app.program.bytes());

    // The backend's stub library ("shredlib.dll" / "osthreads.dll").
    const isa::Program &stubs = rt::stubLibrary(backend);
    as.defineRegion(stubs.base, stubs.byteSize(), /*writable=*/false,
                    "stubs", rt::stubImage(backend));

    // Static data regions.
    for (const DataRegion &region : app.data) {
        as.defineRegion(region.addr, region.size, region.writable,
                        region.label, region.image);
    }

    // Main stack, top of user space.
    constexpr std::uint64_t kMainStack = 256 * 1024;
    VAddr stackBase = mem::kStackTop - kMainStack;
    as.defineRegion(stackBase, kMainStack, /*writable=*/true, "stack:main");
    VAddr sp = mem::kStackTop - 64;

    os::OsThread *main =
        kernel.createThread(proc, app.program.symbol("main"), sp, 0);
    main->affinity = affinity;

    return LoadedProcess{proc, main};
}

} // namespace misp::harness
