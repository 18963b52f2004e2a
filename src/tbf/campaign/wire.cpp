#include "tbf/campaign/wire.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace tbf::campaign {
namespace {

// ---------------------------------------------------------------------------
// JSON emit/parse. The grammar is the tiny subset the protocol uses: one flat
// object of "key": value pairs, values either integers or strings. Strings
// escape \" \\ and control characters (as \u00XX); the parser accepts exactly
// that set plus the standard short escapes.
// ---------------------------------------------------------------------------

// Index of the first byte at or after `from` that a JSON string must escape ('"',
// '\\' or a control character), or s.size(). Callers copy the run up to it with one
// append, so a multi-KB hex payload costs one copy, not a push_back per byte.
size_t PlainRunEnd(std::string_view s, size_t from) {
  size_t i = from;
  while (i < s.size() && s[i] != '"' && s[i] != '\\' &&
         static_cast<unsigned char>(s[i]) >= 0x20) {
    ++i;
  }
  return i;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (size_t i = 0;;) {
    const size_t end = PlainRunEnd(s, i);
    out->append(s.data() + i, end - i);
    if (end == s.size()) {
      break;
    }
    const char c = s[end];
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
      *out += buf;
    }
    i = end + 1;
  }
  out->push_back('"');
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view in) : in_(in) {}

  bool ParseObject(Message* out) {
    SkipWs();
    if (!Consume('{')) {
      return false;
    }
    SkipWs();
    if (Consume('}')) {
      return AtEnd();
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        return false;
      }
      SkipWs();
      if (!ParseValue(key, out)) {
        return false;
      }
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return AtEnd();
      }
      return false;
    }
  }

 private:
  bool AtEnd() {
    SkipWs();
    return pos_ == in_.size();
  }

  void SkipWs() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < in_.size()) {
      const size_t run = pos_;
      pos_ = PlainRunEnd(in_, pos_);
      out->append(in_.data() + run, pos_ - run);
      if (pos_ == in_.size()) {
        break;
      }
      const char c = in_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        return false;  // Raw control characters are not valid JSON.
      }
      if (pos_ >= in_.size()) {
        return false;
      }
      const char esc = in_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (in_.size() - pos_ < 4) {
            return false;
          }
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = in_[pos_++];
            int digit;
            if (h >= '0' && h <= '9') {
              digit = h - '0';
            } else if (h >= 'a' && h <= 'f') {
              digit = h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              digit = h - 'A' + 10;
            } else {
              return false;
            }
            code = code * 16 + digit;
          }
          if (code > 0xff) {
            return false;  // The writer only emits \u00XX; keep the parser closed.
          }
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return false;
      }
    }
    return false;  // Unterminated.
  }

  bool ParseInt(int64_t* out) {
    const size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') {
      ++pos_;
    }
    const size_t digits_from = pos_;
    while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == digits_from || pos_ - digits_from > 19) {
      return false;
    }
    int64_t value = 0;
    for (size_t i = digits_from; i < pos_; ++i) {
      value = value * 10 + (in_[i] - '0');
    }
    *out = in_[start] == '-' ? -value : value;
    return true;
  }

  bool ParseValue(const std::string& key, Message* out) {
    if (key == "type") {
      return ParseString(&out->type);
    }
    if (key == "data") {
      return ParseString(&out->data);
    }
    if (key == "name") {
      return ParseString(&out->name);
    }
    if (key == "error") {
      return ParseString(&out->error);
    }
    if (key == "job") {
      return ParseInt(&out->job);
    }
    if (key == "len") {
      return ParseInt(&out->len);
    }
    if (key == "crc") {
      return ParseInt(&out->crc);
    }
    if (key == "protocol") {
      return ParseInt(&out->protocol);
    }
    if (key == "ms") {
      return ParseInt(&out->ms);
    }
    return false;  // Single writer: unknown keys are protocol violations.
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace

std::string FormatMessage(const Message& message) {
  std::string out;
  // Room for every field unescaped, so a multi-KB "data" payload is copied once.
  out.reserve(128 + message.type.size() + message.name.size() +
              message.error.size() + message.data.size());
  out = "{\"type\":";
  AppendJsonString(&out, message.type);
  auto put_int = [&out](const char* key, int64_t value) {
    out += ",\"";
    out += key;
    out += "\":";
    char digits[24];
    out.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
  };
  auto put_str = [&out](const char* key, const std::string& value) {
    out += ",\"";
    out += key;
    out += "\":";
    AppendJsonString(&out, value);
  };
  if (message.protocol >= 0) {
    put_int("protocol", message.protocol);
  }
  if (message.job >= 0) {
    put_int("job", message.job);
  }
  if (message.len >= 0) {
    put_int("len", message.len);
  }
  if (message.crc >= 0) {
    put_int("crc", message.crc);
  }
  if (message.ms >= 0) {
    put_int("ms", message.ms);
  }
  if (!message.name.empty()) {
    put_str("name", message.name);
  }
  if (!message.error.empty()) {
    put_str("error", message.error);
  }
  if (!message.data.empty()) {
    put_str("data", message.data);
  }
  out.push_back('}');
  return out;
}

bool ParseMessage(std::string_view line, Message* out) {
  if (line.size() > kMaxLineBytes) {
    return false;
  }
  Message parsed;
  JsonParser parser(line);
  if (!parser.ParseObject(&parsed) || parsed.type.empty()) {
    return false;
  }
  *out = std::move(parsed);
  return true;
}

int ListenUnix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("bind ") + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    *error = std::string("listen ") + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) {
      return true;
    }
    if (rc == 0) {
      return false;
    }
    if (errno != EINTR) {
      return true;  // Let the subsequent read surface the error.
    }
  }
}

bool SendLine(int fd, std::string_view line) {
  // The line and its '\n' go out as two iovecs of one sendmsg: no framed copy.
  char newline = '\n';
  iovec iov[2] = {{const_cast<char*>(line.data()), line.size()}, {&newline, 1}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Skip what was written: whole iovecs first, then into the partial one.
      auto sent = static_cast<size_t>(n);
      while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
        sent -= msg.msg_iov->iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      }
      if (msg.msg_iovlen > 0) {
        msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
        msg.msg_iov->iov_len -= sent;
      }
      continue;
    }
    if (n < 0 && (errno == EINTR)) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Peer is slow; block until writable (bounded by the peer's own deadline
      // handling - a dead peer eventually yields EPIPE/ECONNRESET here).
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      ::poll(&pfd, 1, 1000);
      continue;
    }
    return false;
  }
  return true;
}

bool LineReader::Drain(int fd) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      if (buffer_.size() > kMaxLineBytes) {
        overlong_ = true;
        return false;
      }
      continue;
    }
    if (n == 0) {
      return false;  // EOF.
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    }
    if (errno == EINTR) {
      continue;
    }
    return false;
  }
}

bool LineReader::NextLine(std::string* line) {
  const size_t nl = buffer_.find('\n', scan_from_);
  if (nl == std::string::npos) {
    scan_from_ = buffer_.size();
    return false;
  }
  line->assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  scan_from_ = 0;
  return true;
}

}  // namespace tbf::campaign
