// Snapshot fault injection: systematically corrupts an index snapshot
// on disk and asserts that LoadDualLayerIndex rejects every mutant with
// a clean Status (never a crash, hang, or silent success).
//
// Three mutation families:
//  * truncation at every section boundary and one byte around it;
//  * random single-byte flips (position and bit drawn from a seed);
//  * adversarial metadata patches -- huge/zero lengths, out-of-range or
//    misaligned offsets, bogus header geometry, a retired or unknown
//    format version -- with the CRCs fixed up so the mutation reaches
//    the bounds-checking code instead of dying at the checksum gate.
//
// Every mutant must fail to load: the v2 format is fully
// tamper-evident.

#ifndef DRLI_TESTING_FAULT_INJECT_H_
#define DRLI_TESTING_FAULT_INJECT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/point.h"
#include "core/snapshot_format.h"
#include "topk/query.h"

namespace drli {
namespace testing {

struct FaultSweepOptions {
  std::uint64_t seed = 1;
  // Random single-byte flips to try (DRLI_FAULT_FLIPS overrides in the
  // fuzz driver; the acceptance sweep uses >= 1000).
  std::size_t num_flips = 1000;
};

struct FaultSweepReport {
  std::size_t cases = 0;       // mutants attempted
  std::size_t rejected = 0;    // load returned Corruption / IoError
  std::size_t undetected = 0;  // mutant loaded OK (always a violation)
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// Runs the sweep against the v2 snapshot at `path`. Mutants are
// written next to `path` and removed afterwards. Every mutated load
// runs both the mmap and the owning-read path.
FaultSweepReport RunSnapshotFaultSweep(const std::string& path,
                                       const FaultSweepOptions& options = {});

// --- budget fault injection ---
//
// Deterministic execution-budget faults: for every index family and
// every step index s of its unbudgeted traversal, re-run the query
// with max_evals = s (and, optionally, with a cancel token fused to
// trip at the s-th poll) and assert through the differential oracle
// that the partial result is well-formed, its certified prefix is a
// correct prefix of the exact answer, and its frontier bound really
// bounds every unreturned tuple.

struct BudgetFaultOptions {
  // Check every stride-th step index (1 = exhaustive).
  std::size_t stride = 1;
  // Also fire a CancelToken fuse at each step index (doubles the work).
  bool cancel_faults = true;
  // Cap on step indices per (family, query); 0 = no cap.
  std::size_t max_steps_per_family = 0;
};

struct BudgetFaultReport {
  std::size_t cases = 0;      // budgeted queries executed
  std::size_t partials = 0;   // results that terminated early
  std::size_t completes = 0;  // budget armed but never fired
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// Runs the sweep for every query over one dataset. The queries must be
// valid for `points` (the oracle treats a rejection as a violation).
BudgetFaultReport RunBudgetFaultSweep(const PointSet& points,
                                      const std::vector<TopKQuery>& queries,
                                      const BudgetFaultOptions& options = {});

// --- tiered-index crash recovery ---
//
// Simulates crashes around SaveTieredIndex's write schedule (runs
// first, each atomic, generation manifest last) and corruption of the
// written files. The sweep builds a tiered index through a seeded
// mutation trace, saves generation A, mutates further, saves
// generation B capturing its exact write order, and then:
//  * replays every prefix of B's writes over a copy of A's files --
//    every prefix must load cleanly and answer exactly as the last
//    durable generation (A until B's manifest commits, B after);
//  * truncates B's manifest at every byte (strided above
//    truncation_cap) -- every cut must be rejected with a clean
//    Corruption/IoError, never a crash or a silent success;
//  * truncates one of B's run snapshots at every v2 section boundary
//    and one byte around it -- same requirement;
//  * applies seeded single-byte flips to the manifest and a run file
//    -- both are fully checksummed, so every flip must be rejected.

struct TieredFaultOptions {
  std::uint64_t seed = 1;
  // Random single-byte flips to try across the manifest + a run file.
  std::size_t num_flips = 400;
  // Mutation-trace ops applied between generation A and generation B.
  std::size_t mutations_between = 48;
  // Manifest truncation is exhaustive (every byte) up to this size;
  // larger manifests are cut at evenly strided positions.
  std::size_t truncation_cap = 4096;
};

struct TieredFaultReport {
  std::size_t cases = 0;               // mutants + crash points attempted
  std::size_t rejected = 0;            // corrupt mutants cleanly rejected
  std::size_t recovered_previous = 0;  // crash prefixes that recovered A
  std::size_t recovered_current = 0;   // full write sets that loaded B
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// Runs the sweep inside `scratch_dir` (created if missing; its contents
// are removed at the end).
TieredFaultReport RunTieredFaultSweep(const std::string& scratch_dir,
                                      const TieredFaultOptions& options = {});

// --- low-level helpers, shared with tests ---

std::vector<std::uint8_t> ReadFileBytes(const std::string& path);
void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes);

// In-memory editor for a well-formed v2 snapshot that keeps the file
// self-consistent: any mutation through it re-seals the affected
// section CRC, the section table CRC and the header CRC. Tests use it
// to plant semantically corrupt but checksum-valid payloads (e.g. a
// coarse-layer permutation the loader accepts but CheckIndex rejects).
class SnapshotV2Editor {
 public:
  // CHECK-fails unless `bytes` starts with a v2 header.
  explicit SnapshotV2Editor(std::vector<std::uint8_t> bytes);

  snapshot::HeaderV2 header() const;
  // Overwrites the header; recomputes header_crc first unless
  // `reseal` is false (for planting deliberately bad header CRCs).
  void SetHeader(const snapshot::HeaderV2& header, bool reseal = true);

  std::size_t num_sections() const;
  snapshot::SectionEntry entry(std::size_t i) const;
  // Overwrites entry `i` and re-seals the table and header CRCs. The
  // entry's own `crc` field is stored as given (callers patch it when
  // they mutate the payload through PatchSection, and leave it stale
  // on purpose for adversarial metadata mutants).
  void SetEntry(std::size_t i, const snapshot::SectionEntry& entry);

  // Index into the entry table of the section of `kind`; -1 if absent.
  int FindSection(snapshot::SectionKind kind) const;
  // Overwrites `len` payload bytes at `offset_in_section` and re-seals
  // the section CRC (and table/header CRCs). CHECK-fails out of range.
  void PatchSection(snapshot::SectionKind kind, std::uint64_t offset_in_section,
                    const void* data, std::size_t len);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  void ResealTable();

  std::vector<std::uint8_t> bytes_;
};

}  // namespace testing
}  // namespace drli

#endif  // DRLI_TESTING_FAULT_INJECT_H_
