package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// getConn is the reader's side of one keep-alive HTTP/1.1 connection: the
// calling goroutine writes each pre-encoded request and reads its response
// itself. net/http's client hands every request to two more goroutines per
// connection, and the wake-ups between them, spread over two cores, made
// the measured latency depend on where the scheduler happened to place
// them. The server side is the program's net/http stack, unchanged.
type getConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialGet(addr string) (*getConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &getConn{c: c, br: bufio.NewReaderSize(c, 16<<10), body: make([]byte, 0, 4096)}, nil
}

// getRequest encodes a GET for path.
func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// do sends req and returns the status and the body, which is valid until
// the next call. Only Content-Length framed responses are accepted.
func (g *getConn) do(req []byte, timeout time.Duration) (int, []byte, error) {
	if err := g.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := g.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := g.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	n := -1
	for {
		if line, err = g.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("bad header %q", line)
		}
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if n, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("bad header %q", line)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			return 0, nil, errors.New("chunked responses are not supported")
		}
	}
	if n < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(g.body) < n {
		g.body = make([]byte, n)
	}
	g.body = g.body[:n]
	if _, err := io.ReadFull(g.br, g.body); err != nil {
		return 0, nil, err
	}
	return status, g.body, nil
}

func (g *getConn) close() { g.c.Close() }
