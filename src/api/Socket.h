//===- api/Socket.h - Small POSIX TCP helpers -------------------*- C++ -*-===//
///
/// \file
/// The few socket primitives the line protocol needs, shared by the server,
/// the storm driver and the tests: connect-by-host-and-port, write-all, and
/// a buffered newline-delimited reader. Everything reports errors as
/// strings; nothing throws.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_SOCKET_H
#define OFFCHIP_API_SOCKET_H

#include <cstddef>
#include <string>

namespace offchip {

/// Connects a TCP socket to \p Host : \p Port. Returns the connected fd,
/// or -1 with \p Err set.
int connectTcp(const std::string &Host, unsigned Port, std::string *Err);

/// Writes all of \p Data to \p Fd, retrying short writes. False on error.
bool sendAll(int Fd, const std::string &Data);

/// Buffered reader yielding one '\n'-terminated line at a time (the
/// terminator and any trailing '\r' are stripped). Lines are bounded: a
/// peer that sends more than MaxLineBytes without a terminator is cut off
/// instead of growing the buffer without limit.
class LineReader {
public:
  /// The longest accepted line, terminator excluded: far above any request
  /// or response of the protocol (a Simulate answer is about 13 KB).
  static constexpr std::size_t MaxLineBytes = std::size_t(4) << 20;

  explicit LineReader(int Fd) : Fd(Fd) {}

  /// Reads the next line into \p Line. Returns false on EOF, on error, and
  /// once a line exceeds MaxLineBytes (then overflowed() is true and every
  /// later call returns false); a final unterminated line is still
  /// delivered before EOF is reported.
  bool readLine(std::string *Line);

  bool overflowed() const { return Overflow; }

private:
  bool overflow();

  int Fd;
  std::string Buf;
  std::size_t Pos = 0;
  bool Eof = false;
  bool Overflow = false;
};

} // namespace offchip

#endif // OFFCHIP_API_SOCKET_H
