package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"progxe/internal/server"
)

// service is one in-process progressive query service reached over
// loopback HTTP, configured like the serve binary's defaults (coalescing on)
// and like progxe-loadgen's self-host mode.
type service struct {
	srv    *server.Server
	hs     *http.Server
	ln     net.Listener
	base   string
	client *http.Client
	served chan struct{}
	tr     *tracer // nil in untraced runs
}

// startService hosts a fresh server. With a non-nil tracer every request is
// wrapped in a server-side span while the tracer is recording.
func startService(tr *tracer) (*service, error) {
	srv := server.New(server.Config{CoalesceReplay: server.DefaultCoalesceReplay})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	var h http.Handler = srv
	if tr != nil {
		h = tr.wrap(srv)
	}
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		ln:   ln,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
		served: make(chan struct{}),
		tr:     tr,
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

// close cancels in-flight runs and subscriptions, drains the connections
// and waits for the serve loop to exit.
func (s *service) close() {
	s.srv.CancelRuns()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.served
	s.client.CloseIdleConnections()
}

// stream is what the client observed on one /v1/query response. Times are
// measured from the moment the request was handed to the transport.
type stream struct {
	times []time.Duration // arrival of each result record
	pairs [][2]int64      // (leftId, rightId) of each result, in order
	total time.Duration   // arrival of the trailing stats record
	first time.Duration   // response headers received
	stats record
}

func (st *stream) reset() {
	st.times, st.pairs = st.times[:0], st.pairs[:0]
	st.total, st.first, st.stats = 0, 0, record{}
}

// ttfr, tt50 return the arrival of the first result and of the result that
// completes half of the stream.
func (st *stream) ttfr() time.Duration { return st.times[0] }
func (st *stream) tt50() time.Duration { return st.times[(len(st.times)+1)/2-1] }

// record is the union of the non-result NDJSON records the service emits.
type record struct {
	Type          string  `json:"type"`
	Seq           uint64  `json:"seq"`
	LeftID        int64   `json:"leftId"`
	RightID       int64   `json:"rightId"`
	Results       int     `json:"results"`
	ElapsedMillis float64 `json:"elapsedMillis"`
	Canceled      bool    `json:"canceled"`
	Reason        string  `json:"reason"`
	Error         string  `json:"error"`
	Code          string  `json:"code"`
	Message       string  `json:"message"`
}

var resultPrefix = []byte(`{"type":"result",`)

// post sends one JSON body and returns the response once headers arrive.
// spanID, when non-zero, tags the request so the server-side span nests
// under the client span.
func (s *service) post(ctx context.Context, path string, body []byte, spanID int64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp, nil
}

// query sends one /v1/query request and reads its stream to the end,
// stamping every result record as it is read.
func (s *service) query(ctx context.Context, body []byte, spanID int64, st *stream) error {
	st.reset()
	start := time.Now()
	resp, err := s.post(ctx, "/v1/query", body, spanID)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	st.first = time.Since(start)
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if bytes.HasPrefix(line, resultPrefix) {
				st.times = append(st.times, time.Since(start))
				p, ok := parsePair(line)
				if !ok {
					return &mismatch{fmt.Sprintf("unparseable result record %q", line)}
				}
				st.pairs = append(st.pairs, p)
			} else {
				var rec record
				if err := json.Unmarshal(line, &rec); err != nil {
					return &mismatch{fmt.Sprintf("bad stream line %q: %v", line, err)}
				}
				switch rec.Type {
				case "error":
					return fmt.Errorf("in-stream error %s: %s", rec.Code, rec.Message)
				case "stats":
					st.total = time.Since(start)
					st.stats = rec
					if rec.Error != "" || (rec.Canceled && rec.Reason != "limit") {
						return fmt.Errorf("run ended early: error %q reason %q", rec.Error, rec.Reason)
					}
				}
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("reading stream: %w", err)
		}
	}
	if st.stats.Type != "stats" {
		return errors.New("stream ended without a stats record")
	}
	if len(st.times) == 0 {
		// Every workload query joins non-empty relations, so its skyline
		// is never empty.
		return &mismatch{"stream carried no result"}
	}
	return nil
}

// parsePair extracts leftId and rightId from a result record without a
// full JSON decode; the server encodes them as plain integers.
func parsePair(line []byte) ([2]int64, bool) {
	l, ok1 := intField(line, `"leftId":`)
	r, ok2 := intField(line, `"rightId":`)
	return [2]int64{l, r}, ok1 && ok2
}

func intField(line []byte, key string) (int64, bool) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, false
	}
	b := line[i+len(key):]
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	var v int64
	n := 0
	for ; n < len(b) && b[n] >= '0' && b[n] <= '9'; n++ {
		v = v*10 + int64(b[n]-'0')
	}
	if neg {
		v = -v
	}
	return v, n > 0
}

// change posts one NDJSON change line and returns the catalog sequence it
// was stamped with.
func (s *service) change(ctx context.Context, rel string, line []byte, spanID int64) (uint64, error) {
	resp, err := s.post(ctx, "/v1/relations/"+rel+"/changes", line, spanID)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var cr server.ChangesResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return 0, fmt.Errorf("decoding change response: %w", err)
	}
	if cr.Applied != 1 {
		return 0, fmt.Errorf("change applied %d lines, want 1", cr.Applied)
	}
	return cr.LastSeq, nil
}

// checkpoint is one checkpoint record of a subscription, stamped on read.
type checkpoint struct {
	seq uint64
	at  time.Time
}

// subscription is one open /v1/subscribe stream. A reader goroutine folds
// result and retract records into the net result set and hands each
// checkpoint to the driving loop.
type subscription struct {
	start  time.Time
	cancel context.CancelFunc
	done   chan struct{}
	// cps carries checkpoints to the driving loop; its buffer holds one
	// cycle's worth (the snapshot plus one per change), so the reader never
	// waits on a loop that is busy reading.
	cps chan checkpoint

	mu   sync.Mutex
	net  map[[2]int64]bool
	ttfr time.Duration // first result record, from send
	err  error
}

// subscribe opens a subscription and starts its reader.
func (s *service) subscribe(ctx context.Context, body []byte, spanID int64, changes int) (*subscription, error) {
	ctx, cancel := context.WithCancel(ctx)
	sub := &subscription{
		start: time.Now(), cancel: cancel, done: make(chan struct{}),
		cps: make(chan checkpoint, changes+1), net: map[[2]int64]bool{},
	}
	resp, err := s.post(ctx, "/v1/subscribe", body, spanID)
	if err != nil {
		cancel()
		return nil, err
	}
	go sub.read(ctx, resp.Body)
	return sub, nil
}

func (sub *subscription) read(ctx context.Context, body io.ReadCloser) {
	defer close(sub.done)
	defer body.Close()
	fail := func(err error) {
		sub.mu.Lock()
		if sub.err == nil {
			sub.err = err
		}
		sub.mu.Unlock()
	}
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			now := time.Now()
			if bytes.HasPrefix(line, resultPrefix) {
				p, ok := parsePair(line)
				sub.mu.Lock()
				if sub.ttfr == 0 {
					sub.ttfr = now.Sub(sub.start)
				}
				if !ok || sub.net[p] {
					sub.mu.Unlock()
					fail(&mismatch{fmt.Sprintf("subscription: duplicate or unparseable result %q", line)})
					return
				}
				sub.net[p] = true
				sub.mu.Unlock()
			} else {
				var rec record
				if err := json.Unmarshal(line, &rec); err != nil {
					fail(&mismatch{fmt.Sprintf("subscription: bad line %q: %v", line, err)})
					return
				}
				switch rec.Type {
				case "retract":
					p := [2]int64{rec.LeftID, rec.RightID}
					sub.mu.Lock()
					ok := sub.net[p]
					delete(sub.net, p)
					sub.mu.Unlock()
					if !ok {
						fail(&mismatch{fmt.Sprintf("subscription: retract of a pair not in the result set %v", p)})
						return
					}
				case "checkpoint":
					select {
					case sub.cps <- checkpoint{seq: rec.Seq, at: now}:
					case <-ctx.Done():
						return
					}
				case "error":
					fail(fmt.Errorf("subscription error %s: %s", rec.Code, rec.Message))
					return
				}
			}
		}
		if err != nil {
			if ctx.Err() == nil {
				fail(fmt.Errorf("subscription stream ended: %w", err))
			}
			return
		}
	}
}

// await waits for the checkpoint covering seq and returns when it was read.
func (sub *subscription) await(ctx context.Context, seq uint64) (time.Time, error) {
	for {
		select {
		case cp := <-sub.cps:
			if cp.seq >= seq {
				return cp.at, nil
			}
		case <-sub.done:
			sub.mu.Lock()
			defer sub.mu.Unlock()
			if sub.err != nil {
				return time.Time{}, sub.err
			}
			return time.Time{}, errors.New("subscription ended before its checkpoint")
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		}
	}
}

// matches checks a read's duplicate-free result pairs against the current
// net result set.
func (sub *subscription) matches(pairs [][2]int64) error {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if err := checkSet(pairs, sub.net); err != nil {
		return fmt.Errorf("read against the subscription's net set: %w", err)
	}
	return nil
}

// detachWait bounds how long detach waits for the server to release a
// closed subscription.
const detachWait = 5 * time.Second

// detach closes the stream, waits for the reader, and waits until the
// server has released the subscription. A subscription the server still
// holds after detachWait is an error.
func (s *service) detach(ctx context.Context, sub *subscription) error {
	sub.cancel()
	<-sub.done
	sub.mu.Lock()
	err := sub.err
	sub.mu.Unlock()
	deadline := time.Now().Add(detachWait)
	for s.srv.Stats().SubscriptionsLive > 0 {
		if ctx.Err() != nil || time.Now().After(deadline) {
			return errors.Join(err, fmt.Errorf("server still holds the subscription %v after detach", detachWait))
		}
		time.Sleep(200 * time.Microsecond)
	}
	return err
}
