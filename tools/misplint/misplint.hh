/**
 * @file
 * misplint — the repo-specific invariant checker.
 *
 * Every headline claim this reproduction makes (bit-identical engines,
 * byte-identical --jobs/--isolate/restored sweeps, engine-neutral
 * snapshot images) rests on two contracts that used to live only in
 * prose: *simulated code is deterministic* and *everything archived
 * round-trips through its one archive body*. misplint turns both into
 * mechanical gates over the source text (a lightweight tokenizer — no
 * libclang, no compiler dependency), run as a tier-1 ctest and in CI.
 *
 * Rule families (ids are what findings and baselines carry):
 *
 *  snapshot completeness
 *    snap-archive-missing  member of a class with an `archive` member
 *                          template not referenced in its archive body
 *                          and not annotated
 *    snap-bad-annotation   unknown `// snap: <kind>` value
 *    snap-raw-read         a mention of snap::Deserializer in src/
 *                          outside src/snapshot/: images are read only
 *                          through archive bodies
 *    snap-closure-event    scheduleLambda / LambdaEvent in a simulated
 *                          dir (outside the event queue that defines
 *                          them): a closure cannot be archived, so a
 *                          pending one would be lost from an image
 *
 *  determinism hygiene (simulated dirs only — see kSimulatedDirs)
 *    det-rand              rand()/srand()/std::random_device — all
 *                          stochastic behaviour must come from sim::Rng
 *    det-time              wall-clock access (time()/clock()/
 *                          gettimeofday/std::chrono) in simulated code,
 *                          or std::chrono anywhere in src/ outside the
 *                          host-side allowlist
 *    det-ptr-key           std::map/std::set keyed by a pointer type —
 *                          iteration order is the allocator's, not the
 *                          model's
 *    det-unordered-iter    iteration over a std::unordered_map/set —
 *                          hash-order leaks into emitted/serialized
 *                          bytes unless the site sorts first (annotate
 *                          deliberate sort-then-iterate sites)
 *
 *  layering
 *    layer-include         src/{sim,mem,cpu} including a src/driver or
 *                          src/harness header (the model must not know
 *                          about the host-side run layer)
 *
 *  config read tracking (simulated dirs, src/snapshot/ excepted: its
 *  archive reads every field and records them all)
 *    config-raw-read       a member read (`x.f`, `x->f`) of a data
 *                          member of SystemConfig, MispConfig or
 *                          KernelConfig: the model reads a config field
 *                          through its tracked accessor (readConfig,
 *                          deferConfig, knob<>) so the run's read mask
 *                          records it. Writes are not reads; a member
 *                          whose declaration carries
 *                          `misplint: allow(config-raw-read)` is
 *                          deliberately untracked
 *
 * Annotation grammar (in comments, same line as the declaration or on
 * an otherwise code-free line directly above):
 *
 *    // snap: derived     rebuilt lazily after restore (decode caches,
 *                         last-translation windows) — deliberately not
 *                         in any image
 *    // snap: host-only   host-side measurement/bookkeeping, excluded
 *                         from images by design
 *    // snap: config      construction-time configuration; restore
 *                         targets are freshly built from the same
 *                         config, so it never travels
 *    // snap: stats       travels via the stats tree
 *                         (StatBase::snapValues), not this class's
 *                         archive — members of stats:: type get this
 *                         implicitly
 *    // snap: quiesced    holds its reset value at every event
 *                         boundary (it is only nonzero inside one
 *                         event's process()), and a snapshot is only
 *                         ever taken between events
 *    // snap: attach      re-established on the restore path by an
 *                         explicit companion call (Mmu::snapAttach),
 *                         not by archive itself
 *
 *    // misplint: allow(rule-id) <reason>
 *                         suppress one hygiene rule at one site; the
 *                         reason is mandatory prose for the reviewer
 *
 * Members that are references (construction wiring — they cannot be
 * reseated) and members of stats:: types (archived via the stats tree)
 * are exempt without annotation.
 */

#ifndef MISP_TOOLS_MISPLINT_HH
#define MISP_TOOLS_MISPLINT_HH

#include <string>
#include <vector>

namespace misplint {

/** One violation. `symbol` is the stable element the finding is about
 *  (member, class, tag, include path) — it keys baseline entries, so
 *  baselines survive line-number drift. */
struct Finding {
    std::string file; ///< path relative to Options::root
    int line = 0;
    std::string rule;
    std::string symbol;
    std::string message;
};

struct Options {
    std::string root = ".";
    /** Scan roots, relative to root. Directories are walked
     *  recursively for .hh/.cc/.h/.cpp; files are taken as-is. */
    std::vector<std::string> paths = {"src", "tests"};
};

struct Report {
    std::vector<Finding> findings; ///< sorted by (file, line, rule)
    int filesScanned = 0;
    int archiveClasses = 0; ///< classes with an archive member template
    int membersChecked = 0;
    int suppressed = 0; ///< findings silenced by inline annotations
    /** Names of the classes the completeness rule covered — lets the
     *  self-scan test assert nothing silently fell out of coverage. */
    std::vector<std::string> archiveNames;
    /** Config fields config-raw-read tracks, sorted: the same guard
     *  against a collapsed rule. */
    std::vector<std::string> configFields;
};

/** Run every rule over Options::paths. */
Report run(const Options &opts);

/** "file:line: rule-id message" — the one output format. */
std::string format(const Finding &f);

/** "file:rule-id:symbol" — the baseline entry for a finding. */
std::string baselineKey(const Finding &f);

} // namespace misplint

#endif // MISP_TOOLS_MISPLINT_HH
