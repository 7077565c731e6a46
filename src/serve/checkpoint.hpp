// Durable per-job checkpoint store (DESIGN.md §11).
//
// Layout under <root>/<job>/:
//
//   manifest.json  — {"job","tenant","spec"} (canonical spec JSON), written
//                    atomically (tmp + rename + directory fsync) at submit;
//                    its presence is what makes a directory a job.
//   rows.jsonl     — completed units' result rows, appended then fsync'd
//                    BEFORE the unit is committed;
//   units.log      — one "<unit> ok" record per completed (scenario, trial)
//                    unit, appended + fsync'd AFTER the unit's rows.
//                    units.log is the commit record: a kill -9 anywhere
//                    leaves either a fully committed unit or an uncommitted
//                    rows tail that load_rows() drops (simulation results
//                    are pure functions of the spec's seeds, so dropped
//                    units re-run to byte-identical rows). The " ok" suffix
//                    keeps a torn prefix of one record from reading as a
//                    different, smaller unit number.
//   cancelled      — marker file: the job must not be resumed.
//
// A restarted daemon lists job directories, reloads each manifest, filters
// rows.jsonl against units.log, and re-queues whatever is incomplete — the
// union of rows streamed across daemon lifetimes equals an uninterrupted
// run's row set exactly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tcgrid::serve {

class JobCheckpoint {
 public:
  /// Bind to <root>/<job>, creating the directory (and root) if needed.
  /// Throws std::runtime_error on filesystem failure.
  JobCheckpoint(const std::string& root, const std::string& job);
  ~JobCheckpoint();

  JobCheckpoint(const JobCheckpoint&) = delete;
  JobCheckpoint& operator=(const JobCheckpoint&) = delete;

  /// Atomic write (manifest.json.tmp, fsync, rename, fsync dir).
  void write_manifest(const std::string& manifest_json);
  /// Throws std::runtime_error when absent/unreadable.
  [[nodiscard]] std::string read_manifest() const;

  /// Durably commit one completed unit: rows appended + fsync'd first, then
  /// the unit index appended + fsync'd. NOT thread-safe — the server holds
  /// a per-job mutex across commits.
  void commit_unit(std::size_t unit, const std::vector<std::string>& rows);

  void mark_cancelled();
  [[nodiscard]] bool is_cancelled() const;

  struct LoadedRows {
    std::vector<std::size_t> completed_units;  ///< units.log order, deduped
    std::vector<std::string> rows;             ///< committed rows, file order
  };
  /// Replay the durable state: parse units.log (dropping torn/garbage
  /// lines), keep only rows.jsonl lines whose (scenario, trial) unit —
  /// scenario * trials + trial — is committed, and rewrite either file
  /// atomically when it held anything beyond the validated records, so
  /// subsequent O_APPEND writes extend clean files. The units.log rewrite
  /// is load-bearing: a torn tail left in place would concatenate with the
  /// next appended record and read back as a different, never-run unit.
  [[nodiscard]] LoadedRows load_rows(std::size_t trials);

  /// Job ids under `root` (directories with a manifest). Missing root = {}.
  [[nodiscard]] static std::vector<std::string> list_jobs(const std::string& root);

  /// True when <root>/<job> already holds checkpoint state (a manifest,
  /// units log, or rows file) — e.g. an unloadable job the daemon skipped
  /// at startup. Fresh submissions must not reuse such a directory: its
  /// stale committed units would merge into the new job after a restart.
  [[nodiscard]] static bool has_state(const std::string& root, const std::string& job);

 private:
  void open_append_fds();

  std::string dir_;
  int rows_fd_ = -1;
  int units_fd_ = -1;
};

}  // namespace tcgrid::serve
