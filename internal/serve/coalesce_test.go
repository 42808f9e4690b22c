package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// coalesceTestRows is a deterministic 400-row dataset over card [2,3,2,4]
// with enough mass per cell that every marginal is non-trivial.
func coalesceTestRows() [][]uint8 {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]uint8, 400)
	for i := range rows {
		rows[i] = []uint8{
			uint8(rng.Intn(2)), uint8(rng.Intn(3)), uint8(rng.Intn(2)), uint8(rng.Intn(4)),
		}
	}
	return rows
}

// coalesceTargets mixes the whole read surface: sorted and unsorted
// varsets (the latter exercise cache reorder), given clauses (slow path
// through the coalescer), and MI pairs in both orders (the i>j transpose).
var coalesceTargets = []string{
	"/v1/marginal?vars=0",
	"/v1/marginal?vars=1",
	"/v1/marginal?vars=0,1",
	"/v1/marginal?vars=1,3",
	"/v1/marginal?vars=0,1,2,3",
	"/v1/marginal?vars=3,0",
	"/v1/marginal?vars=2,1",
	"/v1/marginal?vars=1&given=0=1",
	"/v1/marginal?vars=3&given=2=0,0=1",
	"/v1/mi?i=0&j=1",
	"/v1/mi?i=1&j=0",
	"/v1/mi?i=3&j=1",
	"/v1/mi?i=2&j=3",
}

func getBody(t *testing.T, s *Server, target string) string {
	t.Helper()
	req := httptest.NewRequest("GET", target, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d body %s", target, w.Code, w.Body.String())
	}
	return w.Body.String()
}

// TestCoalescedBitIdenticalToUncoalesced serves the same preloaded data
// from a coalescing and a non-coalescing server and asserts that a
// concurrent mixed burst of marginal and MI queries produces byte-identical
// response bodies — coalescing may only change how scans are shared, never
// a single bit of any response.
func TestCoalescedBitIdenticalToUncoalesced(t *testing.T) {
	card := []int{2, 3, 2, 4}
	rows := coalesceTestRows()
	sCo := newTestServer(t, card, rows, func(c *Config) { c.CoalesceWindow = 500 * time.Microsecond })
	sUn := newTestServer(t, card, rows, nil) // CoalesceWindow 0: every query scans for itself

	want := make(map[string]string, len(coalesceTargets))
	for _, target := range coalesceTargets {
		want[target] = getBody(t, sUn, target)
	}

	// Twice: once with the cache disabled so every query exercises the
	// coalescer's shared scans, once enabled so the burst also crosses the
	// cache-hit fast path. Both must reproduce the uncoalesced bytes.
	for _, cacheOn := range []bool{false, true} {
		sCo.SetReadCacheEnabled(cacheOn)
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for n := 0; n < 40; n++ {
					target := coalesceTargets[rng.Intn(len(coalesceTargets))]
					req := httptest.NewRequest("GET", target, nil)
					w := httptest.NewRecorder()
					sCo.Handler().ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						t.Errorf("%s: status %d body %s", target, w.Code, w.Body.String())
						return
					}
					if got := w.Body.String(); got != want[target] {
						t.Errorf("%s (cache %v): coalesced body\n %q\nwant uncoalesced\n %q",
							target, cacheOn, got, want[target])
						return
					}
				}
			}(int64(g))
		}
		wg.Wait()
	}
}

// TestCoalescedEpochSwapConsistency fires a coalesced mixed burst across
// continuous epoch swaps: every response must be internally consistent
// (counts summing to the reported m) and correspond to an ingested prefix.
// Run under -race; it is the epoch-swap analogue of the bit-identity test.
func TestCoalescedEpochSwapConsistency(t *testing.T) {
	card := []int{2, 3, 2}
	s := newTestServer(t, card, nil, func(c *Config) { c.CoalesceWindow = 200 * time.Microsecond })
	mgr := s.Manager()

	var (
		mu  sync.Mutex
		okM = map[uint64]bool{0: true}
	)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			if _, err := mgr.Refresh(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				var target string
				if rng.Intn(2) == 0 {
					target = fmt.Sprintf("/v1/marginal?vars=%d", rng.Intn(3))
				} else {
					target = "/v1/mi?i=2&j=0"
				}
				req := httptest.NewRequest("GET", target, nil)
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("%s: status %d body %s", target, w.Code, w.Body.String())
					return
				}
				var env struct {
					Data marginalResponse `json:"data"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
					t.Error(err)
					return
				}
				if strings.HasPrefix(target, "/v1/marginal") {
					var sum uint64
					for _, c := range env.Data.Counts {
						sum += c
					}
					if sum != env.Data.M {
						t.Errorf("%s: counts sum %d != m %d", target, sum, env.Data.M)
						return
					}
				}
				mu.Lock()
				valid := okM[env.Data.M]
				mu.Unlock()
				if !valid {
					t.Errorf("%s: m = %d is not an ingested prefix", target, env.Data.M)
					return
				}
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(3))
	total := 0
	for b := 0; b < 40; b++ {
		rows := make([][]uint8, 20)
		for i := range rows {
			rows[i] = []uint8{uint8(rng.Intn(2)), uint8(rng.Intn(3)), uint8(rng.Intn(2))}
		}
		total += len(rows)
		mu.Lock()
		okM[uint64(total)] = true
		mu.Unlock()
		if err := mgr.Ingest(rows); err != nil {
			t.Fatal(err)
		}
		if b%8 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	for mgr.Pending() > 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
}

// refsField matches the one field of a /v1/epoch body that concurrent
// requests legitimately change: the snapshot's live refcount, which counts
// every request pinning the snapshot at that instant.
var refsField = regexp.MustCompile(`"refs":(-?[0-9]+)`)

// stableBody returns body with a /v1/epoch refcount replaced by a fixed
// marker, so every other byte can be compared exactly. It reports false
// unless the body holds exactly one refcount and that count is at least 1
// (the request itself holds a reference while it encodes). Bodies without
// a refs field pass through unchanged.
func stableBody(target, body string) (string, bool) {
	if target != "/v1/epoch" {
		return body, true
	}
	m := refsField.FindAllStringSubmatch(body, -1)
	if len(m) != 1 {
		return body, false
	}
	refs, err := strconv.Atoi(m[0][1])
	if err != nil || refs < 1 {
		return body, false
	}
	return refsField.ReplaceAllLiteralString(body, `"refs":#`), true
}

// TestPoisonOnReleaseNoAliasing scribbles sentinel bytes over every pooled
// response buffer at release and asserts that concurrent requests still
// produce exactly the expected bytes — i.e. nothing a request hands out
// (cache entries, coalescer results, response bodies) aliases pooled
// memory whose lifetime has ended. The /v1/epoch refcount is the only
// byte range exempt from exact comparison (it counts in-flight requests);
// it must still parse as a count of at least 1.
func TestPoisonOnReleaseNoAliasing(t *testing.T) {
	poisonPooled.Store(true)
	defer poisonPooled.Store(false)

	card := []int{2, 3, 2, 4}
	rows := coalesceTestRows()
	s := newTestServer(t, card, rows, func(c *Config) { c.CoalesceWindow = 300 * time.Microsecond })

	want := make(map[string]string, len(coalesceTargets)+1)
	targets := append([]string{"/v1/epoch"}, coalesceTargets...)
	for _, target := range targets {
		body, ok := stableBody(target, getBody(t, s, target))
		if !ok {
			t.Fatalf("%s: body %q lacks a refcount >= 1", target, body)
		}
		want[target] = body
	}

	for _, cacheOn := range []bool{true, false} {
		s.SetReadCacheEnabled(cacheOn)
		var wg sync.WaitGroup
		for g := 0; g < 12; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for n := 0; n < 50; n++ {
					target := targets[rng.Intn(len(targets))]
					req := httptest.NewRequest("GET", target, nil)
					w := httptest.NewRecorder()
					s.Handler().ServeHTTP(w, req)
					if got, ok := stableBody(target, w.Body.String()); !ok || got != want[target] {
						t.Errorf("%s (cache %v): body %q, want %q — pooled buffer aliased?",
							target, cacheOn, w.Body.String(), want[target])
						return
					}
				}
			}(int64(g))
		}
		wg.Wait()
	}
}

// TestCoalescerCancelOneWaiter joins two duplicate queries into one batch,
// cancels one waiter's context, and asserts the other still completes with
// the correct result: an individual cancellation must not tear down the
// shared scan.
func TestCoalescerCancelOneWaiter(t *testing.T) {
	card := []int{2, 3, 2}
	s := newTestServer(t, card, testRows, func(c *Config) { c.CoalesceWindow = time.Millisecond })
	co := s.co

	// Hold the scan token so the batch leader cannot detach while the two
	// waiters join; this makes the rendezvous deterministic.
	co.token <- struct{}{}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, _, err := co.Do(ctxA, []int{0}, nil)
		errA <- err
	}()
	// Wait for A to open the batch, then join B as a duplicate.
	for {
		co.mu.Lock()
		open := co.pending != nil
		co.mu.Unlock()
		if open {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	type result struct {
		counts []uint64
		err    error
	}
	resB := make(chan result, 1)
	go func() {
		mg, _, err := co.Do(context.Background(), []int{0}, nil)
		if err != nil {
			resB <- result{nil, err}
			return
		}
		resB <- result{mg.Counts, nil}
	}()
	// B must be parked on the same batch before A cancels.
	for {
		co.mu.Lock()
		waiters := 0
		if co.pending != nil {
			waiters = co.pending.waiters
		}
		co.mu.Unlock()
		if waiters == 2 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	<-co.token // release the leader

	r := <-resB
	if r.err != nil {
		t.Fatalf("surviving waiter failed: %v", r.err)
	}
	if len(r.counts) != 2 || r.counts[0] != 3 || r.counts[1] != 3 {
		t.Fatalf("surviving waiter counts = %v, want [3 3]", r.counts)
	}
}

// TestCoalescerAllWaitersCancelled verifies the complementary property:
// when every waiter abandons the batch, the scan is skipped entirely and
// the batch resolves as cancelled.
func TestCoalescerAllWaitersCancelled(t *testing.T) {
	card := []int{2, 3, 2}
	s := newTestServer(t, card, testRows, func(c *Config) { c.CoalesceWindow = time.Millisecond })
	co := s.co

	co.token <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := co.Do(ctx, []int{0, 1}, nil)
		errc <- err
	}()
	for {
		co.mu.Lock()
		b := co.pending
		co.mu.Unlock()
		if b != nil {
			cancel()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("waiter returned %v, want context.Canceled", err)
			}
			<-co.token
			select {
			case <-b.done:
			case <-time.After(5 * time.Second):
				t.Fatal("abandoned batch never resolved")
			}
			if !errors.Is(b.err, context.Canceled) {
				t.Fatalf("abandoned batch err = %v, want context.Canceled", b.err)
			}
			if b.results != nil {
				t.Fatal("abandoned batch ran its scan anyway")
			}
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}
