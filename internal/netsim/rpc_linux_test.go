package netsim

import (
	"errors"
	"net"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// TestDialPeerTimeoutBoundsTheDial: a listener with a backlog of 0 that
// never accepts holds one connection; Linux drops the SYNs of every later
// one, so a dial to it hangs until its bound cuts it.
func TestDialPeerTimeoutBoundsTheDial(t *testing.T) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(sa.(*syscall.SockaddrInet4).Port)

	// Fill the accept queue until a dial no longer completes.
	full := false
	for i := 0; i < 8 && !full; i++ {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			full = true
			break
		}
		defer c.Close()
	}
	if !full {
		t.Skip("this kernel completes connections beyond a full accept queue")
	}

	start := time.Now()
	p, err := DialPeerTimeout(addr, "Node", 20*time.Millisecond)
	if err == nil {
		p.Close()
		t.Fatal("a dial to a server that never completes the handshake must fail")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a dial timeout, got %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the dial took %v: the 20ms bound did not hold", took)
	}
}
