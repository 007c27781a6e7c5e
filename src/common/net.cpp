#include "common/net.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"

namespace qa
{
namespace net
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
remainingMs(SteadyClock::time_point deadline)
{
    return std::chrono::duration<double, std::milli>(deadline -
                                                     SteadyClock::now())
        .count();
}

/** Numeric-IPv4/localhost resolution into a sockaddr_in. */
bool
resolveV4(const std::string& host, int port, sockaddr_in* addr)
{
    std::memset(addr, 0, sizeof(*addr));
    addr->sin_family = AF_INET;
    addr->sin_port = htons(uint16_t(port));
    const std::string name =
        (host.empty() || host == "localhost") ? "127.0.0.1" : host;
    return ::inet_pton(AF_INET, name.c_str(), &addr->sin_addr) == 1;
}

void
setCloexec(int fd)
{
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

void
setNodelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** One poll() bounded by `timeout_ms` (<0 = forever), EINTR retried. */
int
pollOnce(int fd, short events, double timeout_ms)
{
    const bool forever = timeout_ms < 0.0;
    const SteadyClock::time_point deadline =
        SteadyClock::now() +
        std::chrono::duration_cast<SteadyClock::duration>(
            std::chrono::duration<double, std::milli>(
                forever ? 0.0 : timeout_ms));
    for (;;) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = events;
        pfd.revents = 0;
        int wait = -1;
        if (!forever) {
            const double left = remainingMs(deadline);
            if (left <= 0.0) return 0;
            wait = int(left) + 1;
        }
        const int r = ::poll(&pfd, 1, wait);
        if (r < 0) {
            if (errno == EINTR) continue;
            return -1;
        }
        if (r == 0) {
            if (forever) continue;
            return 0;
        }
        return 1;
    }
}

} // namespace

Endpoint
parseEndpoint(const std::string& text)
{
    Endpoint ep;
    std::string port_text = text;
    const size_t colon = text.rfind(':');
    if (colon != std::string::npos) {
        ep.host = text.substr(0, colon);
        port_text = text.substr(colon + 1);
    }
    if (ep.host.empty()) ep.host = "127.0.0.1";
    QA_REQUIRE(!port_text.empty() &&
                   port_text.find_first_not_of("0123456789") ==
                       std::string::npos,
               "malformed endpoint '" + text +
                   "' (expected host:port with a numeric port)");
    const long port = std::strtol(port_text.c_str(), nullptr, 10);
    QA_REQUIRE(port >= 0 && port <= 65535,
               "endpoint '" + text + "' port out of range");
    ep.port = int(port);
    return ep;
}

int
tcpListen(const std::string& host, int port, int backlog, int* bound_port,
          std::string* error)
{
    sockaddr_in addr;
    if (!resolveV4(host, port, &addr)) {
        if (error) *error = "cannot resolve host '" + host + "'";
        return -1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error) *error = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    setCloexec(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        if (error) *error = std::string("bind: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    if (::listen(fd, backlog) != 0) {
        if (error) *error = std::string("listen: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    if (bound_port != nullptr) {
        sockaddr_in bound;
        socklen_t len = sizeof(bound);
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
            0) {
            *bound_port = int(ntohs(bound.sin_port));
        } else {
            *bound_port = port;
        }
    }
    return fd;
}

int
tcpConnect(const std::string& host, int port, double timeout_ms)
{
    sockaddr_in addr;
    if (!resolveV4(host, port, &addr)) return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    setCloexec(fd);
    if (!setNonBlocking(fd, true)) {
        ::close(fd);
        return -1;
    }
    const int r =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (r != 0) {
        if (errno != EINPROGRESS) {
            ::close(fd);
            return -1;
        }
        if (pollOnce(fd, POLLOUT, timeout_ms) != 1) {
            ::close(fd); // handshake timed out or poll failed
            return -1;
        }
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
            soerr != 0) {
            ::close(fd); // refused, unreachable, reset mid-handshake
            return -1;
        }
    }
    setNodelay(fd);
    return fd; // stays non-blocking: reads/writes are poll-bounded
}

int
tcpAccept(int listen_fd, double timeout_ms)
{
    const int ready = pollOnce(listen_fd, POLLIN, timeout_ms);
    if (ready == 0) return -1;
    if (ready < 0) return -2;
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
            setCloexec(fd);
            setNodelay(fd);
            return fd;
        }
        if (errno == EINTR) continue;
        // The ready connection vanished (peer RST between poll and
        // accept): report as a timeout so the caller's loop re-polls.
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == ECONNABORTED) {
            return -1;
        }
        return -2;
    }
}

bool
pollReadable(int fd, double timeout_ms)
{
    return pollOnce(fd, POLLIN, timeout_ms) == 1;
}

bool
writeAllBounded(int fd, const char* data, size_t len, double timeout_ms)
{
    if (fd < 0) return false;
    const SteadyClock::time_point deadline =
        SteadyClock::now() +
        std::chrono::duration_cast<SteadyClock::duration>(
            std::chrono::duration<double, std::milli>(
                timeout_ms > 0.0 ? timeout_ms : 0.0));
    size_t off = 0;
    while (off < len) {
        // MSG_NOSIGNAL: a peer that hung up is an EPIPE return, not a
        // process-killing SIGPIPE. Non-socket fds fall back to write.
        ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data + off, len - off);
        if (n > 0) {
            off += size_t(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (timeout_ms <= 0.0) return false;
            const double left = remainingMs(deadline);
            if (left <= 0.0) return false; // slow-loris peer: give up
            if (pollOnce(fd, POLLOUT, left) != 1) return false;
            continue;
        }
        return false; // EPIPE/ECONNRESET/...: peer is gone
    }
    return true;
}

void
shutdownWrite(int fd)
{
    if (fd >= 0) ::shutdown(fd, SHUT_WR);
}

void
shutdownBoth(int fd)
{
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void
closeQuiet(int fd)
{
    if (fd >= 0) ::close(fd);
}

bool
setNonBlocking(int fd, bool enabled)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) return false;
    const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    return ::fcntl(fd, F_SETFL, next) >= 0;
}

} // namespace net
} // namespace qa
