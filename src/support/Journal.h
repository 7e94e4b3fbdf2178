//===- Journal.h - Append-only checksummed work journal ---------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk format underneath checkpoint/resume (see Resume.h): an
/// append-only journal of self-delimiting, individually checksummed
/// frames, durable after every append.
///
/// Layout:
///
///   "NVJRNL1\n"                                    8-byte magic
///   frame*                                         header frame first
///
/// where each frame is
///
///   u32le payload length | u32le FNV-1a32 checksum | payload bytes
///
/// The first frame is the *header*: a text blob binding the journal to
/// the run's inputs (program hash, engine config, thread count — see
/// RunBinding). Every subsequent frame is one completed unit of work.
///
/// Read semantics distinguish the two ways a journal can be damaged:
///
///  - A *torn tail* — the file ends mid-frame because the process died
///    inside an append — is expected crash debris. The reader drops the
///    partial frame, reports the prefix length that survived, and the
///    writer truncates to that length before appending again. The unit
///    whose frame was torn simply re-runs.
///
///  - A *corrupt interior* — a checksum mismatch on a complete frame, a
///    bad magic, or a frame extending past other valid data — means the
///    file is not the journal we wrote (bit rot, concurrent writers,
///    hand editing). That is never repaired silently: the reader returns
///    Corrupt and callers surface a hard user error (exit 2).
///
/// Durability: each append is a single write(2) of the whole frame to an
/// O_APPEND descriptor followed by fdatasync(2), so a frame is either
/// fully durable or (at worst) a torn tail.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_JOURNAL_H
#define NV_SUPPORT_JOURNAL_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nv {

/// FNV-1a 32-bit over \p Size bytes — the per-frame checksum.
uint32_t fnv1a32(const void *Data, size_t Size);

/// FNV-1a 64-bit rendered as 16 hex digits — used for input binding
/// hashes (program text, corpus files).
std::string fnv1a64Hex(const std::string &Text);

//===----------------------------------------------------------------------===//
// JournalReader
//===----------------------------------------------------------------------===//

/// The result of scanning a journal file.
struct JournalRead {
  enum class State : uint8_t {
    Ok,      ///< Header + zero or more entries decoded.
    NoFile,  ///< The file does not exist (fresh run).
    Corrupt, ///< Interior damage: bad magic, checksum mismatch, no header.
  };

  State St = State::NoFile;
  std::string Error;    ///< Set when Corrupt: what was wrong, and where.
  std::string Header;   ///< The header frame's payload (binding text).
  std::vector<std::string> Entries; ///< Completed-unit payloads, in order.
  bool TornTail = false; ///< A partial trailing frame was dropped.
  uint64_t ValidBytes = 0; ///< Length of the decodable prefix; a writer
                           ///< reopening the journal truncates to this.
};

/// Scans \p Path front to back, verifying every checksum.
JournalRead readJournal(const std::string &Path);

//===----------------------------------------------------------------------===//
// JournalWriter
//===----------------------------------------------------------------------===//

/// Appends frames durably. Both constructors take an exclusive
/// non-blocking flock on the file held for the writer's lifetime, so two
/// coordinators pointed at one journal fail fast with a clear error
/// instead of interleaving frames. Create one via createJournal (fresh
/// file, writes the header frame) or appendJournal (continue a journal whose
/// valid prefix a JournalRead established).
class JournalWriter {
public:
  ~JournalWriter();
  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;

  /// Appends one frame and fdatasyncs. Returns false on I/O failure or a
  /// payload over the 64 MiB frame cap, which the reader would refuse
  /// (the error is sticky: subsequent appends fail fast and lastError()
  /// holds the first failure).
  bool append(const std::string &Payload);

  bool broken() const { return !Err.empty(); }
  const std::string &lastError() const { return Err; }
  const std::string &path() const { return Path; }

private:
  friend std::unique_ptr<JournalWriter>
  createJournal(const std::string &, const std::string &, std::string &);
  friend std::unique_ptr<JournalWriter>
  appendJournal(const std::string &, uint64_t, std::string &);
  JournalWriter(int Fd, std::string Path) : Fd(Fd), Path(std::move(Path)) {}

  int Fd = -1;
  std::string Path;
  std::string Err;
};

/// Creates (truncating any existing file) a journal at \p Path with
/// \p HeaderText as the header frame, durably. Null + \p Error on failure.
std::unique_ptr<JournalWriter> createJournal(const std::string &Path,
                                             const std::string &HeaderText,
                                             std::string &Error);

/// Reopens \p Path for appending after a JournalRead reported
/// \p ValidBytes of decodable prefix; truncates the torn tail (if any)
/// first so new frames never land after garbage.
std::unique_ptr<JournalWriter> appendJournal(const std::string &Path,
                                             uint64_t ValidBytes,
                                             std::string &Error);

} // namespace nv

#endif // NV_SUPPORT_JOURNAL_H
