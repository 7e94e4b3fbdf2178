//===- Journal.cpp - Append-only checksummed work journal -----------------===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/Journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace nv {

static const char JournalMagic[8] = {'N', 'V', 'J', 'R', 'N', 'L', '1', '\n'};

uint32_t fnv1a32(const void *Data, size_t Size) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint32_t H = 2166136261u;
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 16777619u;
  }
  return H;
}

std::string fnv1a64Hex(const std::string &Text) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
  return Buf;
}

static void putU32le(std::string &Out, uint32_t V) {
  Out.push_back(char(V & 0xff));
  Out.push_back(char((V >> 8) & 0xff));
  Out.push_back(char((V >> 16) & 0xff));
  Out.push_back(char((V >> 24) & 0xff));
}

static uint32_t getU32le(const unsigned char *P) {
  return uint32_t(P[0]) | (uint32_t(P[1]) << 8) | (uint32_t(P[2]) << 16) |
         (uint32_t(P[3]) << 24);
}

/// Frames are length-prefixed; cap a single payload well below anything a
/// unit record produces so a corrupt length field cannot drive a huge
/// allocation before the checksum check rejects the frame.
static constexpr uint32_t MaxFramePayload = 64u << 20;

//===----------------------------------------------------------------------===//
// readJournal
//===----------------------------------------------------------------------===//

JournalRead readJournal(const std::string &Path) {
  JournalRead R;
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    if (errno == ENOENT) {
      R.St = JournalRead::State::NoFile;
    } else {
      R.St = JournalRead::State::Corrupt;
      R.Error = Path + ": open failed: " + std::strerror(errno);
    }
    return R;
  }

  std::string Data;
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      R.St = JournalRead::State::Corrupt;
      R.Error = Path + ": read failed: " + std::strerror(errno);
      return R;
    }
    if (N == 0)
      break;
    Data.append(Buf, size_t(N));
  }
  ::close(Fd);

  if (Data.size() < sizeof(JournalMagic) ||
      std::memcmp(Data.data(), JournalMagic, sizeof(JournalMagic)) != 0) {
    R.St = JournalRead::State::Corrupt;
    R.Error = Path + ": not an nv journal (bad magic)";
    return R;
  }

  const auto *Bytes = reinterpret_cast<const unsigned char *>(Data.data());
  size_t Off = sizeof(JournalMagic);
  size_t FrameIdx = 0;
  bool SawHeader = false;
  while (Off < Data.size()) {
    // A frame that does not fit is the torn tail only if it reaches EOF —
    // the remaining bytes are the partial frame. (The interior cannot be
    // short: Off only advances past fully verified frames.)
    if (Data.size() - Off < 8) {
      R.TornTail = true;
      break;
    }
    uint32_t Len = getU32le(Bytes + Off);
    uint32_t Sum = getU32le(Bytes + Off + 4);
    if (Len > MaxFramePayload) {
      R.St = JournalRead::State::Corrupt;
      R.Error = Path + ": frame " + std::to_string(FrameIdx) +
                " has implausible length " + std::to_string(Len) +
                " (corrupt length field)";
      return R;
    }
    if (Data.size() - Off - 8 < Len) {
      R.TornTail = true;
      break;
    }
    uint32_t Got = fnv1a32(Bytes + Off + 8, Len);
    if (Got != Sum) {
      // A complete frame with a bad checksum is interior corruption — torn
      // writes only ever shorten the file.
      R.St = JournalRead::State::Corrupt;
      R.Error = Path + ": checksum mismatch in frame " +
                std::to_string(FrameIdx) + " at byte offset " +
                std::to_string(Off) + " (journal is corrupt, not resumable)";
      return R;
    }
    std::string Payload(Data.data() + Off + 8, Len);
    if (!SawHeader) {
      R.Header = std::move(Payload);
      SawHeader = true;
    } else {
      R.Entries.push_back(std::move(Payload));
    }
    Off += 8 + size_t(Len);
    ++FrameIdx;
    R.ValidBytes = Off;
  }

  if (!SawHeader) {
    // Magic but no complete header frame: treat as a torn fresh file — the
    // caller recreates it from scratch.
    R.St = JournalRead::State::NoFile;
    R.TornTail = false;
    R.ValidBytes = 0;
    return R;
  }
  R.St = JournalRead::State::Ok;
  return R;
}

//===----------------------------------------------------------------------===//
// JournalWriter
//===----------------------------------------------------------------------===//

JournalWriter::~JournalWriter() {
  if (Fd >= 0)
    ::close(Fd);
}

static bool writeAll(int Fd, const char *P, size_t N, std::string &Err,
                     const std::string &Path) {
  while (N > 0) {
    ssize_t W = ::write(Fd, P, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Err = Path + ": write failed: " + std::strerror(errno);
      return false;
    }
    P += W;
    N -= size_t(W);
  }
  return true;
}

/// Takes the journal's single-writer lock, non-blocking. Journals are one
/// coordinator's ledger: two writers — say, two `nv --resume` coordinators
/// pointed at the same path — would interleave frames into a file neither
/// can replay, so the second opener must fail fast instead. The lock lives
/// as long as the writer's fd (flock is per open-file description, so the
/// forked-then-exec'd fleet workers, which never inherit the fd thanks to
/// O_CLOEXEC, cannot hold it by accident).
static bool lockJournalFd(int Fd, const std::string &Path, std::string &Err) {
  while (::flock(Fd, LOCK_EX | LOCK_NB) != 0) {
    if (errno == EINTR)
      continue;
    if (errno == EWOULDBLOCK)
      Err = Path + ": journal is locked by another process (two coordinators "
                   "must not share one journal; pick a distinct --resume path)";
    else
      Err = Path + ": flock failed: " + std::strerror(errno);
    return false;
  }
  return true;
}

bool JournalWriter::append(const std::string &Payload) {
  if (!Err.empty())
    return false;
  // The reader refuses such a frame as corrupt, so it is never written.
  if (Payload.size() > MaxFramePayload) {
    Err = Path + ": frame of " + std::to_string(Payload.size()) +
          " bytes exceeds the journal frame cap of " +
          std::to_string(MaxFramePayload) + " bytes";
    return false;
  }
  std::string Frame;
  Frame.reserve(8 + Payload.size());
  putU32le(Frame, uint32_t(Payload.size()));
  putU32le(Frame, fnv1a32(Payload.data(), Payload.size()));
  Frame += Payload;
  if (!writeAll(Fd, Frame.data(), Frame.size(), Err, Path))
    return false;
  if (::fdatasync(Fd) != 0) {
    Err = Path + ": fdatasync failed: " + std::strerror(errno);
    return false;
  }
  return true;
}

std::unique_ptr<JournalWriter> createJournal(const std::string &Path,
                                             const std::string &HeaderText,
                                             std::string &Error) {
  // Open without O_TRUNC: truncating before holding the lock would let a
  // second coordinator wipe the first one's live journal just by racing
  // the open. Lock first, truncate once the file is provably ours.
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (Fd < 0) {
    Error = Path + ": open failed: " + std::strerror(errno);
    return nullptr;
  }
  if (!lockJournalFd(Fd, Path, Error)) {
    ::close(Fd);
    return nullptr;
  }
  if (::ftruncate(Fd, 0) != 0) {
    Error = Path + ": ftruncate failed: " + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  std::unique_ptr<JournalWriter> W(new JournalWriter(Fd, Path));
  if (!writeAll(Fd, JournalMagic, sizeof(JournalMagic), W->Err, Path)) {
    Error = W->Err;
    return nullptr;
  }
  if (!W->append(HeaderText)) {
    Error = W->lastError();
    return nullptr;
  }
  return W;
}

std::unique_ptr<JournalWriter> appendJournal(const std::string &Path,
                                             uint64_t ValidBytes,
                                             std::string &Error) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CLOEXEC);
  if (Fd < 0) {
    Error = Path + ": open failed: " + std::strerror(errno);
    return nullptr;
  }
  if (!lockJournalFd(Fd, Path, Error)) {
    ::close(Fd);
    return nullptr;
  }
  // Drop any torn tail before O_APPEND writes land after it. The append
  // flag goes on via fcntl rather than a close-and-reopen: reopening
  // would drop the flock between truncate and first append.
  if (::ftruncate(Fd, off_t(ValidBytes)) != 0) {
    Error = Path + ": ftruncate failed: " + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  if (::fdatasync(Fd) != 0) {
    Error = Path + ": fdatasync failed: " + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  int Flags = ::fcntl(Fd, F_GETFL);
  if (Flags < 0 || ::fcntl(Fd, F_SETFL, Flags | O_APPEND) != 0) {
    Error = Path + ": fcntl(O_APPEND) failed: " + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(Fd, Path));
}

} // namespace nv
