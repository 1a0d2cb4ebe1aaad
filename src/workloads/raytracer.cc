/**
 * @file
 * RayTracer: the paper's "highly scalable multithreaded graphics
 * application" [Hurley'05]. Rows of the framebuffer are claimed
 * dynamically through an atomic row counter (the classic ray-tracing
 * work-stealing pattern), and per-pixel cost is data-dependent — some
 * rays terminate quickly, some bounce — modeled by a COMPUTE burst whose
 * length derives from the pixel hash.
 */

#include "workloads/builder_util.hh"
#include "workloads/workload.hh"

namespace misp::wl {

using isa::Cond;
using isa::ProgramBuilder;
using namespace reg;

namespace {

std::int64_t
pixelValue(std::uint64_t x, std::uint64_t y)
{
    std::uint64_t h = (x * 2654435761ull) ^ (y * 40503ull);
    h ^= h >> 13;
    return static_cast<std::int64_t>(h & 0xFFFF);
}

} // namespace

Workload
buildRaytracer(const WorkloadParams &p)
{
    // Scene size: width follows the shared `scale` knob; the row count
    // is a per-workload knob (`param.rows` in scenario specs) so sweeps
    // can grow the scene without touching every other workload.
    const std::uint64_t width = 192 * p.scale;
    const std::uint64_t height = p.extraU64("rows", 144);
    const Cycles basePixelCost = 2000;
    const Cycles pixelBaseBurst = 14000;

    DataLayout layout;
    VAddr frame = layout.reserve(width * height * 8, "framebuffer");
    VAddr rowCounter = layout.reserve(mem::kPageSize, "rowCounter");

    ProgramBuilder b;
    emitMainProlog(b);
    auto worker = b.newLabel();
    emitCreateAndJoin(b, p.workers, worker);
    emitMainEpilog(b);

    // worker: loop { row = fetchadd(rowCounter, 1); if row >= H stop;
    //               render row }
    b.bind(worker);
    auto grabRow = b.newLabel(), done = b.newLabel();
    b.bind(grabRow);
    b.movi(t0, rowCounter);
    b.movi(t1, 1);
    b.fetchadd(s0, t0, t1); // s0 = my row
    b.cmpi(s0, static_cast<std::int64_t>(height));
    b.jcc(Cond::Ge, done);
    // s1 = &frame[row][0]
    b.muli(s1, s0, static_cast<std::int64_t>(width * 8));
    b.addi(s1, s1, static_cast<std::int64_t>(frame));
    b.movi(s2, 0); // x
    auto pixLoop = b.newLabel(), rowDone = b.newLabel();
    b.bind(pixLoop);
    b.cmpi(s2, static_cast<std::int64_t>(width));
    b.jcc(Cond::Ge, rowDone);
    // h = (x*2654435761) ^ (y*40503); h ^= h >> 13; v = h & 0xFFFF
    b.muli(t2, s2, 2654435761ll);
    b.muli(t3, s0, 40503);
    b.alu(isa::Opcode::Xor, t2, t2, t3);
    b.shri(t3, t2, 13);
    b.alu(isa::Opcode::Xor, t2, t2, t3);
    b.andi(t2, t2, 0xFFFF);
    // Data-dependent ray cost: a base burst plus 4*(v & 0x3FF) cycles —
    // some rays terminate quickly, some bounce around the scene.
    emitComputeBurst(b, pixelBaseBurst, t0);
    b.andi(t3, t2, 0x3FF);
    b.shli(t3, t3, 2);
    b.compute(basePixelCost, t3);
    // frame[row][x] = v
    b.shli(t4, s2, 3);
    b.add(t4, t4, s1);
    b.st(t4, 0, t2, 8);
    b.addi(s2, s2, 1);
    b.jmp(pixLoop);
    b.bind(rowDone);
    b.jmp(grabRow);
    b.bind(done);
    b.ret();

    Workload w;
    w.app.name = "Raytracer";
    w.app.program = b.finish(mem::kCodeBase);
    w.app.data = layout.take();
    // The answer is computed as the validator reads, not stored: a
    // host copy of the framebuffer would be the largest thing a built
    // Raytracer holds.
    w.validate = makeIntArrayValidator(
        frame, width * height,
        [width](std::size_t i) { return pixelValue(i % width, i / width); },
        "raytracer.frame");
    w.workEstimate =
        width * height * (pixelBaseBurst + basePixelCost + 2048 + 14);
    return w;
}

Workload
buildSpinner(const WorkloadParams &p)
{
    (void)p;
    ProgramBuilder b;
    b.exportHere("main");
    auto loop = b.newLabel();
    b.bind(loop);
    b.compute(400);
    b.jmp(loop); // runs until the harness stops the simulation

    Workload w;
    w.app.name = "spinner";
    w.app.program = b.finish(mem::kCodeBase);
    return w;
}

} // namespace misp::wl
