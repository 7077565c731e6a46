#include "serve/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/obs.hpp"
#include "util/json.hpp"

namespace tcgrid::serve {

namespace fs = std::filesystem;

namespace {

/// Durability is the dominant cost of a unit commit — this histogram is the
/// "checkpoint fsync" series the CI smoke asserts on.
obs::Histogram& fsync_histogram() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("tcgrid_serve_checkpoint_fsync_us");
  return h;
}

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void write_all_fd(int fd, std::string_view data, const std::string& what) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    sys_fail(what);
  }
}

void fsync_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) sys_fail("fsync " + what);
}

/// fsync a directory so a rename/create inside it is durable.
void fsync_dir(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) sys_fail("open dir " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) sys_fail("fsync dir " + path);
}

/// Atomic durable file replacement: tmp + fsync + rename + dir fsync.
void write_file_atomic(const std::string& dir, const std::string& name,
                       std::string_view content) {
  const std::string tmp = dir + "/" + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) sys_fail("open " + tmp);
  try {
    write_all_fd(fd, content, "write " + tmp);
    fsync_or_throw(fd, tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) sys_fail("rename " + tmp);
  fsync_dir(dir);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

}  // namespace

JobCheckpoint::JobCheckpoint(const std::string& root, const std::string& job)
    : dir_(root + "/" + job) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw std::runtime_error("cannot create job directory " + dir_ + ": " +
                                   ec.message());
}

JobCheckpoint::~JobCheckpoint() {
  if (rows_fd_ >= 0) ::close(rows_fd_);
  if (units_fd_ >= 0) ::close(units_fd_);
}

void JobCheckpoint::write_manifest(const std::string& manifest_json) {
  write_file_atomic(dir_, "manifest.json", manifest_json);
}

std::string JobCheckpoint::read_manifest() const {
  return read_file(dir_ + "/manifest.json");
}

void JobCheckpoint::open_append_fds() {
  if (rows_fd_ < 0) {
    const std::string rows_path = dir_ + "/rows.jsonl";
    rows_fd_ = ::open(rows_path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (rows_fd_ < 0) sys_fail("open " + rows_path);
  }
  if (units_fd_ < 0) {
    const std::string units_path = dir_ + "/units.log";
    units_fd_ = ::open(units_path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (units_fd_ < 0) sys_fail("open " + units_path);
  }
}

void JobCheckpoint::commit_unit(std::size_t unit, const std::vector<std::string>& rows) {
  open_append_fds();
  // One write per unit (the contiguous-unit row block), then the commit
  // record. The ordering — rows durable BEFORE the unit line — is the whole
  // crash-consistency argument; see the header comment.
  std::string block;
  for (const std::string& row : rows) {
    block += row;
    block += '\n';
  }
  write_all_fd(rows_fd_, block, "append rows " + dir_);
  {
    const obs::ScopedTimer timer(fsync_histogram());
    fsync_or_throw(rows_fd_, dir_ + "/rows.jsonl");
  }
  // The " ok" suffix makes a commit record self-validating: a torn append
  // of "41 ok\n" can leave "4" or "41 o", neither of which parses as a
  // complete record — a truncated PREFIX of a unit number must never read
  // as a smaller committed unit.
  write_all_fd(units_fd_, std::to_string(unit) + " ok\n", "append units " + dir_);
  {
    const obs::ScopedTimer timer(fsync_histogram());
    fsync_or_throw(units_fd_, dir_ + "/units.log");
  }
}

void JobCheckpoint::mark_cancelled() {
  write_file_atomic(dir_, "cancelled", "");
}

bool JobCheckpoint::is_cancelled() const { return fs::exists(dir_ + "/cancelled"); }

JobCheckpoint::LoadedRows JobCheckpoint::load_rows(std::size_t trials) {
  LoadedRows out;
  std::set<std::size_t> committed;

  std::string units_raw;
  if (std::ifstream units(dir_ + "/units.log", std::ios::binary); units.is_open()) {
    std::ostringstream buf;
    buf << units.rdbuf();
    units_raw = std::move(buf).str();
  }
  std::string units_clean;
  for (std::size_t pos = 0; pos < units_raw.size();) {
    const std::size_t nl = units_raw.find('\n', pos);
    // A record is "<unit> ok\n"; a torn tail (kill -9 mid-append) lacks the
    // newline and/or suffix — and, crucially, a torn prefix of a larger
    // unit number must not read as a smaller one — so anything short of the
    // full form is skipped as uncommitted.
    const std::string_view line(units_raw.data() + pos,
                                (nl == std::string::npos ? units_raw.size() : nl) - pos);
    pos = nl == std::string::npos ? units_raw.size() : nl + 1;
    constexpr std::string_view kSuffix = " ok";
    if (nl == std::string::npos || line.size() <= kSuffix.size() ||
        line.substr(line.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    std::size_t unit = 0;
    const char* end = line.data() + line.size() - kSuffix.size();
    const auto [p, ec] = std::from_chars(line.data(), end, unit);
    if (ec != std::errc() || p != end) continue;
    if (committed.insert(unit).second) {
      out.completed_units.push_back(unit);
      units_clean.append(line);
      units_clean += '\n';
    }
  }
  if (units_clean != units_raw) {
    // Rewrite so the log holds exactly the validated records. O_APPEND never
    // truncates, so a torn tail left in place would concatenate with the
    // next commit record ("1" + "1 ok\n" -> "11 ok") and falsely mark a
    // never-run unit committed.
    if (units_fd_ >= 0) {
      ::close(units_fd_);
      units_fd_ = -1;
    }
    write_file_atomic(dir_, "units.log", units_clean);
  }

  bool dropped = false;
  if (std::ifstream rows(dir_ + "/rows.jsonl"); rows.is_open()) {
    std::string line;
    while (std::getline(rows, line)) {
      if (line.empty()) continue;
      bool keep = false;
      try {
        const util::json::Value row = util::json::parse(line);
        const util::json::Value* sc = row.find("scenario");
        const util::json::Value* trial = row.find("trial");
        if (sc != nullptr && trial != nullptr && sc->is_unsigned() &&
            trial->is_unsigned() && trials > 0) {
          const std::size_t unit =
              static_cast<std::size_t>(sc->as_uint()) * trials +
              static_cast<std::size_t>(trial->as_uint());
          keep = committed.count(unit) != 0;
        }
      } catch (const std::invalid_argument&) {
        // Torn/garbage line: by the append ordering it belongs to an
        // uncommitted unit — drop it.
      }
      if (keep) out.rows.push_back(line);
      else dropped = true;
    }
  }

  if (dropped) {
    // Rewrite clean so future appends extend a file containing exactly the
    // committed rows (load happens before any new appends; the fds below
    // reopen lazily on the replacement file).
    std::string content;
    for (const std::string& row : out.rows) {
      content += row;
      content += '\n';
    }
    if (rows_fd_ >= 0) {
      ::close(rows_fd_);
      rows_fd_ = -1;
    }
    if (units_fd_ >= 0) {
      ::close(units_fd_);
      units_fd_ = -1;
    }
    write_file_atomic(dir_, "rows.jsonl", content);
  }
  return out;
}

bool JobCheckpoint::has_state(const std::string& root, const std::string& job) {
  const fs::path dir = fs::path(root) / job;
  std::error_code ec;
  return fs::exists(dir / "manifest.json", ec) || fs::exists(dir / "units.log", ec) ||
         fs::exists(dir / "rows.jsonl", ec);
}

std::vector<std::string> JobCheckpoint::list_jobs(const std::string& root) {
  std::vector<std::string> jobs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    if (fs::exists(entry.path() / "manifest.json")) {
      jobs.push_back(entry.path().filename().string());
    }
  }
  std::sort(jobs.begin(), jobs.end());
  return jobs;
}

}  // namespace tcgrid::serve
