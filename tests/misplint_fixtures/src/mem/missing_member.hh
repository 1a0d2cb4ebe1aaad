// Fixture: snapshot-completeness rules over an archive-shaped class.
// Expected findings:
//   line 15: snap-archive-missing (lost_)
//   line 17: snap-bad-annotation  (badKind_)
struct Widget {
    template <class Ar>
    void
    archive(Ar &a)
    {
        a.u64(kept_);
    }

    Ser &wiring_;
    int kept_ = 0;
    int lost_ = 0;
    // snap: bogus — not one of the six known kinds
    int badKind_ = 0;
};
