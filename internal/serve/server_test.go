package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestListenAndServeCutsSlowClient: a client that sends its headers and
// then trickles the body one byte at a time is cut off at the read timeout
// instead of holding its connection for as long as it likes. The request
// never reaches the router, so the ledger stays balanced, and the server
// keeps answering well-behaved clients.
func TestListenAndServeCutsSlowClient(t *testing.T) {
	defer func(d time.Duration) { readTimeout = d }(readTimeout)
	readTimeout = 200 * time.Millisecond

	b := NewBatcher(&fakeEngine{width: 1}, Config{MaxBatch: 4, MaxWait: 500 * time.Microsecond})
	s := NewSingleServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln, 5*time.Second) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := ln.Addr().String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const bodyLen = 1000 // at one byte per 20 ms, 20 s to send in full
	start := time.Now()
	fmt.Fprintf(conn, "POST /predict HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{", addr, bodyLen)
	trickled := make(chan int, 1)
	go func() {
		sent := 1
		for ; sent < bodyLen; sent++ {
			if _, err := conn.Write([]byte{' '}); err != nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		trickled <- sent
	}()
	// Read until the server closes the connection. A typed 400 may come
	// first; what matters is that the server hangs up.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("slow client got status %d, want 400 or a closed connection", resp.StatusCode)
		}
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the server never cut the slow client off")
	}
	if _, err := conn.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the server left the slow client's connection open")
	}
	if held := time.Since(start); held > 5*time.Second {
		t.Fatalf("slow client held its connection for %v with a %v read timeout", held, readTimeout)
	}
	if sent := <-trickled; sent >= bodyLen {
		t.Fatalf("slow client sent its whole %d-byte body before being cut off", bodyLen)
	}

	resp, err := http.Post("http://"+addr+"/predict", "application/json", strings.NewReader(`{"input":[3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-behaved client after the slow one: status %d", resp.StatusCode)
	}
	if sn := s.Router().Snapshot(); sn.Lost() != 0 || sn.Submitted != 1 || sn.Served != 1 {
		t.Fatalf("router ledger after slow client: %+v", sn)
	}
}
