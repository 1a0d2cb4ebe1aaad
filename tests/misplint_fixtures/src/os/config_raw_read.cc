// Fixture: raw reads of machine-config fields in a simulated dir.
// Expected findings (config-raw-read):
//   line 29: ctxSwitch    (a read through a nested config path)
//   line 30: quantumTicks (a read through a pointer)
//   line 33: quantumTicks (a comparison reads)
//   line 35: signalCycles
// Clean: the tracked accessor (line 31, `::` names a member, it does
// not read one), a write (line 32), a method call (line 34) and the
// annotated member `engine` (line 34).
struct KernelConfig {
    unsigned long ctxSwitch = 3500;
    unsigned quantumTicks = 2;
};

struct MispConfig {
    unsigned long signalCycles = 5000;
    // misplint: allow(config-raw-read) -- the reuse key compares it
    int engine = 0;
};

struct SystemConfig {
    MispConfig misp;
    KernelConfig kernel;
};

unsigned long
charge(const SystemConfig &cfg, KernelConfig *k, ConfigReads &reads)
{
    unsigned long c = cfg.kernel.ctxSwitch;
    c += k->quantumTicks;
    c += readConfig<&KernelConfig::ctxSwitch>(cfg.kernel, reads);
    k->quantumTicks = 3;
    if (k->quantumTicks == 3)
        c += cfg.misp.engine + cfg.misp.size();
    c += cfg.misp.signalCycles;
    return c;
}
