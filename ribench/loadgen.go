package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// client is one persistent HTTP/1.1 connection to the server. It
// writes pre-encoded requests and parses responses with net/http, so
// the generator's own cost per request stays small beside the
// server's.
type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReader(conn)}, nil
}

// do sends one request and reads its response.
func (c *client) do(req []byte) (status int, body []byte, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// loadResult is what a load phase observed.
type loadResult struct {
	// latency is each request's time from when it was due to when its
	// response was read; late is how late the generator sent it, beyond
	// both its due time and its connection coming free.
	latency, late []time.Duration
	// mismatched counts responses whose status or bytes differ from
	// the expected answer.
	mismatched int
}

// openLoop sends requests first..first+n-1 of the mix at a fixed rate
// per second, whatever the server's pace: request i is due at
// start + i/rate and goes out on connection i mod len(clients). A
// connection sends its next request when it is due or, if the
// connection is still busy, as soon as the previous response is read;
// latency counts from the due time, so a stall shows in every request
// it delays.
func openLoop(clients []*client, mix *queryMix, first, n int, rate float64) (loadResult, error) {
	start := time.Now().Add(2 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	return drive(clients, mix, first, n, func(i int) time.Time {
		return start.Add(time.Duration(i) * interval)
	})
}

// closedLoop sends requests first..first+n-1 of the mix as fast as the
// server answers them: each connection sends its next request the
// moment the previous response is read.
func closedLoop(clients []*client, mix *queryMix, first, n int) (loadResult, error) {
	return drive(clients, mix, first, n, nil)
}

// drive runs one goroutine per connection over its share of the
// requests, paced by due when it is non-nil, and waits for them all.
// Results are indexed by request, so a window of them is a time window
// of the schedule.
func drive(clients []*client, mix *queryMix, first, n int, due func(i int) time.Time) (loadResult, error) {
	k := len(clients)
	res := loadResult{latency: make([]time.Duration, n)}
	if due != nil {
		res.late = make([]time.Duration, n)
	}
	mismatched := make([]int, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = func() error {
				var p *pacer
				if due != nil {
					var err error
					if p, err = newPacer(); err != nil {
						return err
					}
					defer p.close()
				}
				free := time.Now()
				for i := c; i < n; i += k {
					q := (first + i) % len(mix.reqs)
					if due != nil {
						dueAt := due(i)
						if dueAt.After(free) {
							if err := p.waitUntil(dueAt); err != nil {
								return err
							}
							free = dueAt
						}
						res.late[i] = time.Since(free)
						free = dueAt // latency counts from the due time
					}
					status, body, err := clients[c].do(mix.reqs[q])
					if err != nil {
						return fmt.Errorf("request %d: %w", first+i, err)
					}
					done := time.Now()
					res.latency[i] = done.Sub(free)
					if status != mix.status[q] || !bytes.Equal(body, mix.bodies[q]) {
						mismatched[c]++
					}
					free = done
				}
				return nil
			}()
		}(c)
	}
	wg.Wait()
	for c := range clients {
		if errs[c] != nil {
			return loadResult{}, errs[c]
		}
		res.mismatched += mismatched[c]
	}
	return res, nil
}

// pacer waits until a deadline with microsecond precision. It arms a
// timerfd that the runtime's network poller watches, so a waiting
// goroutine holds no thread; time.Sleep rounds sub-millisecond waits
// up to a whole millisecond, which would make the generator measure
// itself.
type pacer struct {
	// fd is the timer's descriptor; f reads it through the poller.
	// f.Fd() would switch the descriptor to blocking mode.
	fd  uintptr
	f   *os.File
	buf [8]byte
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		uintptr(syscall.O_NONBLOCK|syscall.O_CLOEXEC), 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil returns at t, or at once if t has passed.
func (p *pacer) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
