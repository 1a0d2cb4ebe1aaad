// Fixture: a fully annotated archive-shaped class — must be clean.
// Exercises every annotation placement the grammar allows: trailing
// doc comment, and an inner line of a multi-line block comment; and an
// archive body defined out of class.
struct Cache {
    template <class Ar>
    void archive(Ar &a);

    int mode_ = 0;
    int window_ = 0;    ///< snap: derived — rebuilt lazily on demand
    int hostTicks_ = 0; ///< snap: host-only
    /**
     * Multi-line doc comment carrying the annotation on an inner
     * line, not the one directly above the declaration.
     * snap: config
     */
    int ways_ = 4;
    int drained_ = 0; ///< snap: quiesced
};

template <class Ar>
void
Cache::archive(Ar &a)
{
    a.u64(mode_);
}
