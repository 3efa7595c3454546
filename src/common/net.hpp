// EINTR-safe blocking socket I/O for serve's TCP line protocol.
//
// Every helper retries on EINTR and never raises SIGPIPE (sends use
// MSG_NOSIGNAL), so callers see peer death as a Status instead of a
// signal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace mpte::net {

/// kUnavailable tagged with the current errno text, e.g. "send: Broken
/// pipe". Capture it before any further syscall clobbers errno.
Status socket_error(const std::string& what);

/// Sends the whole span, retrying short writes and EINTR.
Status send_all(int fd, std::span<const std::uint8_t> bytes);
Status send_all(int fd, std::string_view text);

/// One recv of up to buf.size() bytes. Returns 0 on orderly EOF.
Result<std::size_t> recv_some(int fd, std::span<std::uint8_t> buf);

/// Completes a connect() that a signal interrupted: per POSIX the attempt
/// proceeds asynchronously, so retrying connect() would yield EALREADY.
/// Waits for writability, then reads the outcome from SO_ERROR.
Status finish_connect(int fd);

}  // namespace mpte::net
