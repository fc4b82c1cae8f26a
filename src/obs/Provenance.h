//===- Provenance.h - Decision provenance ledger ----------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision provenance ledger (DESIGN.md §14): a bounded, wait-free
/// per-site ring of DecisionRecords that explains every selection
/// decision end-to-end — the per-dimension total costs of every
/// candidate variant (pre- and post-contention-fold), the criterion
/// ratios against the selection rule's thresholds, the adaptive-gate
/// evidence, the contention-sketch thread estimate, and the outcome
/// (kept / switched / converged / warm-start-skipped).
///
/// Recording discipline mirrors the EventLog (DESIGN.md §6): the ledger
/// is off by default and the enabled check is one relaxed atomic load;
/// when disabled the capture paths allocate nothing and touch no ledger
/// state (ProvenanceRegistry::allocationCount() pins this down). Each
/// site's ledger is a SeqlockRing (the EventLog's slot protocol), so
/// record() is wait-free for the writer, and readers (the /explain.json
/// endpoint, cswitch_explain) validate the per-slot version word and
/// retry or skip unreadable slots — they never block a decision.
///
/// Rendering is byte-stable: renderExplainJson() of an unchanged ledger
/// set produces an identical document (sites sorted by name, doubles
/// printed with %.17g round-trip precision, no render-time clocks), so
/// two consecutive snapshots with no intervening decisions compare
/// equal byte-for-byte. parseExplainDocument() is the matching total
/// decoder (schema "cswitch-explain-v1").
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_OBS_PROVENANCE_H
#define CSWITCH_OBS_PROVENANCE_H

#include "support/SeqlockRing.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cswitch {

struct TelemetrySnapshot;

namespace obs {

/// Number of cost dimensions a record carries. Kept as a local constant
/// (with matching names below) so the obs layer stays support-only; the
/// core capture code static_asserts it against model::NumCostDimensions.
constexpr size_t ExplainNumDimensions = 4;

/// Maximum candidate variants per record. The largest abstraction today
/// has 10 variants; 16 leaves headroom without growing the record.
constexpr size_t ExplainMaxCandidates = 16;

/// Maximum selection-rule criteria captured per record.
constexpr size_t ExplainMaxCriteria = 4;

/// Decisions retained per site (oldest overwritten first).
constexpr size_t ExplainLedgerCapacity = 8;

/// Returns "time", "alloc", "energy" or "contention" (enum order of
/// CostDimension); "unknown" out of range.
const char *explainDimensionName(size_t Dim);

/// What a recorded decision concluded.
enum class DecisionOutcome : uint8_t {
  Kept,            ///< No candidate beat the current variant.
  Switched,        ///< The context transitioned to ChosenVariant.
  Converged,       ///< Kept, and the keep streak reached convergence.
  WarmStartSkipped ///< The store seeded the variant; no analysis ran.
};

/// Returns "kept", "switched", "converged" or "warm-start-skipped".
const char *decisionOutcomeName(DecisionOutcome Outcome);

/// Parses a decisionOutcomeName() string; returns false if unknown.
bool parseDecisionOutcome(std::string_view Name, DecisionOutcome &Out);

/// The explanation of one candidate variant within one decision.
struct CandidateExplanation {
  /// Total cost per dimension as the selection rule saw it: when the
  /// contention fold was applied, Total[time] includes the contention
  /// penalty (DESIGN.md §11).
  std::array<double, ExplainNumDimensions> Total = {};
  /// Unfolded components: PreFold[time] is the pure time polynomial sum
  /// and PreFold[contention] the contention polynomial sum evaluated at
  /// the thread estimate. Dimensions the rule does not use are still
  /// backfilled here so the breakdown is complete for every candidate.
  std::array<double, ExplainNumDimensions> PreFold = {};
  /// Criterion ratio TC_D(cand)/TC_D(current) per rule criterion
  /// (index-aligned with DecisionRecord::Criteria); -1 when the current
  /// cost was zero (the zero-cost rule of selectVariant applies).
  std::array<double, ExplainMaxCriteria> Ratio = {};
  bool Covered = false;   ///< The model covers this variant.
  bool Eligible = false;  ///< Competed (coverage ∩ tier ∩ adaptive gate).
  bool Qualified = false; ///< Satisfied every criterion of the rule.
};

/// One captured selection-rule criterion.
struct CriterionExplanation {
  uint8_t Dimension = 0; ///< CostDimension enum value.
  double Threshold = 0.0;
};

/// The full explanation of one decision. Trivially copyable: the ledger
/// publishes records word-wise through atomic slots.
struct DecisionRecord {
  uint64_t Sequence = 0;       ///< Per-site decision counter (1-based).
  uint64_t TimestampNanos = 0; ///< monotonicNanos() at capture.
  uint32_t Round = 0;          ///< Monitoring round analyzed.
  DecisionOutcome Outcome = DecisionOutcome::Kept;
  int16_t CurrentVariant = -1; ///< Variant index before the decision.
  int16_t ChosenVariant = -1;  ///< Winning candidate; -1 = none.
  uint8_t NumCandidates = 0;
  uint8_t NumCriteria = 0;
  /// True when the contention penalty was folded into the time totals
  /// (concurrent tier with >1 estimated threads).
  bool ContentionFolded = false;
  bool AdaptiveStraddles = false; ///< Sizes straddled the threshold.
  bool AdaptiveWide = false;      ///< Sizes spread by WideRangeFactor.
  int16_t AdaptiveIndex = -1;     ///< Adaptive variant index, or -1.
  /// Keep streak after this decision; a switch or a capacity-hint move
  /// resets it (DESIGN.md §4.3).
  uint32_t ConsecutiveKeeps = 0;
  double ContendedThreads = 0.0;  ///< Sketch EWMA thread estimate.
  double AdaptiveThreshold = 0.0; ///< §3.2 threshold in effect.
  double WideRangeFactor = 0.0;
  double MinMaxSize = 0.0; ///< Smallest observed group max size.
  double MaxMaxSize = 0.0; ///< Largest observed group max size.
  /// Worst-case slack of the decided candidate: min over criteria of
  /// (threshold - ratio). Positive for every switch (the candidate beat
  /// every criterion by at least this much); for keeps it is the margin
  /// of the closest non-qualifying candidate (how far the site was from
  /// switching). 0 when no ratio was computable.
  double Margin = 0.0;
  std::array<CriterionExplanation, ExplainMaxCriteria> Criteria = {};
  std::array<CandidateExplanation, ExplainMaxCandidates> Candidates = {};
};

/// Reader-side view of one site's ledger.
struct SiteLedgerSnapshot {
  std::string Name;
  std::string Abstraction;             ///< "list" / "set" / "map".
  std::string Rule;                    ///< Selection rule name.
  std::vector<std::string> Variants;   ///< Display names by index.
  uint64_t Decisions = 0;              ///< Lifetime decision count.
  std::vector<DecisionRecord> Records; ///< Oldest to newest.
};

/// Bounded per-site decision ring: a SeqlockRing (DESIGN.md §6.1) of
/// the last ExplainLedgerCapacity records. Writers (the context's
/// evaluator, serialized by its evaluation mutex) never block, and a
/// reader that loses the race to a wrapping writer skips the lapped
/// slot.
class SiteLedger {
public:
  SiteLedger(std::string Name, std::string Abstraction, std::string Rule,
             std::vector<std::string> Variants);

  SiteLedger(const SiteLedger &) = delete;
  SiteLedger &operator=(const SiteLedger &) = delete;

  /// Publishes \p Record into the ring, stamping its Sequence with its
  /// ticket + 1 (the 1-based decision counter). Wait-free.
  void record(DecisionRecord Record);

  /// Snapshot of the retained records, oldest to newest. A record still
  /// being published is retried briefly, then skipped; lapped records
  /// are skipped.
  std::vector<DecisionRecord> snapshot() const;

  /// Lifetime decisions claimed (may exceed the retained window).
  uint64_t decisionCount() const { return Ring.next(); }

  const std::string &name() const { return Name; }
  const std::string &abstraction() const { return Abstraction; }
  const std::string &rule() const { return Rule; }
  const std::vector<std::string> &variants() const { return Variants; }

  /// Full reader-side view (metadata + records).
  SiteLedgerSnapshot snapshotSite() const;

private:
  const std::string Name;
  const std::string Abstraction;
  const std::string Rule;
  const std::vector<std::string> Variants;
  SeqlockRing<DecisionRecord> Ring{ExplainLedgerCapacity};
};

/// Process-wide registry of site ledgers. Ledgers are interned by site
/// name (pointer-stable, never freed — bounded by site cardinality,
/// like the EventLog intern table) and kept sorted so snapshots render
/// deterministically.
class ProvenanceRegistry {
public:
  /// The process-wide registry instance.
  static ProvenanceRegistry &global();

  ProvenanceRegistry() = default;
  ProvenanceRegistry(const ProvenanceRegistry &) = delete;
  ProvenanceRegistry &operator=(const ProvenanceRegistry &) = delete;

  /// True when decision capture is on. Off by default; resolved once
  /// from CSWITCH_EXPLAIN (=1/true/on) on first query, after which this
  /// is a single relaxed load — the only cost the capture paths pay
  /// when the ledger is disabled.
  static bool enabled();

  /// Programmatically enables/disables capture (overrides the
  /// environment resolution).
  static void setEnabled(bool Enabled);

  /// Returns the ledger of \p SiteName, creating (and interning) it on
  /// first use. Metadata parameters are consumed only on creation.
  SiteLedger *site(const std::string &SiteName,
                   const std::string &Abstraction, const std::string &Rule,
                   std::vector<std::string> Variants);

  /// Snapshot of every site's ledger, sorted by site name.
  std::vector<SiteLedgerSnapshot> snapshotSites() const;

  /// Number of interned site ledgers.
  size_t siteCount() const;

  /// Ledger allocations performed since construction (site interning).
  /// The disabled path must never move this — bench/explain_overhead
  /// --check pins the guarantee down.
  uint64_t allocationCount() const {
    return Allocations.load(std::memory_order_relaxed);
  }

  /// Drops every interned ledger (tests only; not safe while contexts
  /// holding ledger pointers are live).
  void clearForTest();

private:
  /// 0 = unresolved (consult CSWITCH_EXPLAIN), 1 = off, 2 = on.
  static std::atomic<int> EnabledState;

  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<SiteLedger>> Sites;
  std::atomic<uint64_t> Allocations{0};
};

/// Artifact provenance rendered into the /explain.json header: which
/// model and store drove the recorded decisions.
struct ExplainProvenance {
  std::string ModelSource; ///< "<builtin>" or the model file's path.
  uint64_t ModelInstalls = 0;
  std::string StorePath; ///< Warm-start store path, or empty.
  uint64_t StoreLoads = 0;
  uint64_t StoreWarmStarts = 0;
};

/// Distills the artifact provenance of \p Snapshot (model and store
/// registries) into the explain header.
ExplainProvenance makeExplainHeader(const TelemetrySnapshot &Snapshot);

/// Renders the "cswitch-explain-v1" document: provenance header plus
/// every site ledger. Byte-stable for unchanged inputs.
std::string renderExplainJson(const ExplainProvenance &Provenance,
                              const std::vector<SiteLedgerSnapshot> &Sites,
                              bool Enabled);

/// A parsed "cswitch-explain-v1" document.
struct ExplainDocument {
  std::string Schema;
  bool Enabled = false;
  ExplainProvenance Provenance;
  std::vector<SiteLedgerSnapshot> Sites;
};

/// Total decoder for renderExplainJson() output. \returns false (with a
/// diagnostic in \p Error when non-null) on malformed JSON, a wrong
/// schema tag, or out-of-range counts; unknown fields are skipped so
/// newer writers stay readable.
bool parseExplainDocument(std::string_view Json, ExplainDocument &Out,
                          std::string *Error = nullptr);

} // namespace obs
} // namespace cswitch

#endif // CSWITCH_OBS_PROVENANCE_H
