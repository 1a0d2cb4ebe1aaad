/**
 * @file
 * A compact statistics package modeled on gem5's.
 *
 * The MISP paper's prototype firmware provided "coarse- and fine-grain
 * event logging" (Section 4.1); in this reproduction those logs are
 * expressed through this package. Stats self-register with a StatGroup,
 * which dumps the tree as JSON (`mispsim --full-stats`). Table 1 and
 * every figure harness read their inputs from these stats.
 */

#ifndef MISP_SIM_STATS_HH
#define MISP_SIM_STATS_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "logging.hh"

namespace misp::stats {

class StatGroup;

/** @p s JSON-escaped (quotes, backslashes, all control characters)
 *  and double-quoted. The one escaper, shared with writeJsonQuoted by
 *  every JSON emitter in the tree. */
std::string jsonQuote(const std::string &s);

/** Stream @p s escaped and double-quoted to @p os. The streaming
 *  emitters' path: nothing larger than one value is materialized. */
void writeJsonQuoted(std::ostream &os, const std::string &s);

/** Deterministic JSON number: integers as integers, the rest with 9
 *  significant digits. */
void writeJsonNumber(std::ostream &os, double v);

/** The stats or child groups of one StatGroup, in registration order,
 *  linked through each member's own `next_` pointer: registering a
 *  stat or a group allocates nothing. Iterating yields `T *`. */
template <class T>
class Chain
{
  public:
    class iterator
    {
      public:
        T *operator*() const { return node_; }
        iterator &
        operator++()
        {
            node_ = Chain::nextOf(node_);
            return *this;
        }
        bool operator==(const iterator &) const = default;

      private:
        friend Chain;
        explicit iterator(T *node) : node_(node) {}
        T *node_;
    };

    iterator begin() const { return iterator(head_); }
    iterator end() const { return iterator(nullptr); }
    std::size_t size() const { return size_; }

  private:
    friend class StatBase;
    friend class StatGroup;

    static T *nextOf(T *t) { return t->next_; }

    void
    append(T *t)
    {
        t->next_ = nullptr;
        (tail_ ? tail_->next_ : head_) = t;
        tail_ = t;
        ++size_;
    }

    void
    remove(T *t)
    {
        T *prev = nullptr;
        for (T *n = head_; n; prev = n, n = n->next_) {
            if (n != t)
                continue;
            (prev ? prev->next_ : head_) = n->next_;
            if (tail_ == n)
                tail_ = prev;
            --size_;
            return;
        }
    }

    T *head_ = nullptr;
    T *tail_ = nullptr;
    std::size_t size_ = 0;
};

/** Base for all statistics; handles registration and naming. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }

    /** Render the value rows for dumping: (suffix, value) pairs.
     *  Scalar stats emit one row with an empty suffix. */
    virtual std::vector<std::pair<std::string, double>> rows() const = 0;

    /** Full internal state as raw doubles, for machine-state snapshots.
     *  Host-side stats return {}. */
    virtual std::vector<double> snapValues() const = 0;

    /** Restore state captured by snapValues() onto a same-shape stat
     *  (as many values as its own snapValues() holds). */
    virtual void setSnapValues(const std::vector<double> &v) = 0;

  private:
    friend Chain<StatBase>;

    std::string name_;
    StatBase *next_ = nullptr;
};

/** A single accumulating counter. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator++() { value_ += 1.0; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }

    std::vector<std::pair<std::string, double>>
    rows() const override
    {
        return {{"", value_}};
    }

    void reset() { value_ = 0.0; }

    std::vector<double> snapValues() const override { return {value_}; }

    void
    setSnapValues(const std::vector<double> &v) override
    {
        MISP_ASSERT(v.size() == 1);
        value_ = v[0];
    }

  private:
    double value_ = 0.0;
};

/** A Scalar counting host-side instrumentation (execution-engine
 *  internals such as decode-cache hits): dumped like any counter but
 *  excluded from machine-state snapshots, so images stay
 *  engine-neutral — a snapshot warmed under one engine is
 *  byte-identical to one warmed under another, and a restored run's
 *  host counters restart at zero under whatever engine it picked. */
class HostScalar : public Scalar
{
  public:
    using Scalar::Scalar;
    using Scalar::operator=;

    std::vector<double> snapValues() const override { return {}; }

    /** Host counters restart at zero on restore. */
    void
    setSnapValues(const std::vector<double> &) override
    {
        reset();
    }
};

/** A fixed-size vector of counters, e.g. per-sequencer event counts. */
class Vector : public StatBase
{
  public:
    Vector(StatGroup *parent, std::string name, std::size_t size)
        : StatBase(parent, std::move(name)), values_(size)
    {}

    double &operator[](std::size_t i)
    {
        MISP_ASSERT(i < values_.size());
        return values_[i];
    }

    double
    at(std::size_t i) const
    {
        MISP_ASSERT(i < values_.size());
        return values_[i];
    }

    std::size_t size() const { return values_.size(); }

    double
    total() const
    {
        double sum = 0.0;
        for (double v : values_)
            sum += v;
        return sum;
    }

    std::vector<std::pair<std::string, double>>
    rows() const override
    {
        std::vector<std::pair<std::string, double>> out;
        out.reserve(values_.size());
        for (std::size_t i = 0; i < values_.size(); ++i) {
            // Built up in steps (not one `"[" + to_string + "]"`
            // expression): GCC 12's -Wrestrict false-positives on the
            // temporary chain once surrounding code inlines.
            std::string suffix = "[";
            suffix += std::to_string(i);
            suffix += "]";
            out.emplace_back(std::move(suffix), values_[i]);
        }
        return out;
    }

    std::vector<double> snapValues() const override { return values_; }

    void
    setSnapValues(const std::vector<double> &v) override
    {
        MISP_ASSERT(v.size() == values_.size());
        values_ = v;
    }

  private:
    std::vector<double> values_;
};

/**
 * A named collection of stats. Groups nest: a MispProcessor owns a group,
 * each Sequencer owns a child group, etc. Full stat names are
 * dot-joined paths ("misp0.ams1.pageFaults").
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &groupName() const { return name_; }

    /** Slash-free absolute path of this group. */
    std::string path() const;

    /** Find a stat by relative dotted path; nullptr if absent. */
    const StatBase *find(std::string_view relPath) const;

    /** Convenience: value of a Scalar stat by path (0 if absent or
     *  not a Scalar). Allocates nothing. */
    double lookupValue(std::string_view relPath) const;

    /**
     * Dump as a JSON object, recursively: one member per stat (scalar
     * stats become numbers, multi-row stats an object of suffix ->
     * value) and one nested object per child group. @p indent is the
     * current indentation depth. Values use full double precision so
     * machine consumers (the mispsim driver, CI trend tooling) can
     * round-trip them.
     */
    void dumpJson(std::ostream &os, int indent = 0) const;

    const Chain<StatBase> &statsHere() const { return stats_; }
    const Chain<StatGroup> &children() const { return children_; }

  private:
    friend class StatBase;
    friend Chain<StatGroup>;

    std::string name_;
    StatGroup *parent_;
    Chain<StatBase> stats_;
    Chain<StatGroup> children_;
    /** Next sibling in the parent's children_. */
    StatGroup *next_ = nullptr;
};

} // namespace misp::stats

#endif // MISP_SIM_STATS_HH
