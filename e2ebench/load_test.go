package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeClock advances only when slept on. Each sleep overshoots its
// target by oversleep, and the sleep listed in stallAt (by call number)
// overshoots by stall instead: a starved generator.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	oversleep time.Duration
	stall     time.Duration
	stallAt   int
	calls     int
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if !t.After(c.now) {
		return
	}
	over := c.oversleep
	if c.calls == c.stallAt {
		over = c.stall
	}
	c.now = t.Add(over)
}

func TestOpenLoopLatenessOnFakeClock(t *testing.T) {
	ms := time.Millisecond
	sched := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	clk := &fakeClock{now: time.Unix(0, 0), oversleep: 1 * ms, stall: 25 * ms, stallAt: 2}
	start := clk.Now()
	var mu sync.Mutex
	dues := make([]time.Time, len(sched))
	release := make(chan struct{})
	done := make(chan openStats)
	go func() {
		done <- openLoop(clk, sched, func(i int, due time.Time) {
			mu.Lock()
			dues[i] = due
			mu.Unlock()
			<-release // every request stays in flight until the end
		})
	}()
	// Wait until all five are in flight, then let them finish.
	for {
		mu.Lock()
		n := 0
		for _, d := range dues {
			if !d.IsZero() {
				n++
			}
		}
		mu.Unlock()
		if n == len(sched) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	st := <-done

	// Sleep 2 (for the 10 ms send) stalls 25 ms: that send is 25 ms
	// late, the 20 and 30 ms sends go out at 35 ms without sleeping (15
	// and 5 late), and the 40 ms send is back on schedule but for the
	// 1 ms oversleep.
	want := []time.Duration{0, 25 * ms, 15 * ms, 5 * ms, 1 * ms}
	for i, w := range want {
		if st.late[i] != w {
			t.Errorf("late[%d] = %v, want %v", i, st.late[i], w)
		}
		// Due times stay on the absolute schedule whatever the lateness.
		if got := dues[i].Sub(start); got != sched[i] {
			t.Errorf("due[%d] = start+%v, want start+%v", i, got, sched[i])
		}
	}
	if st.maxInflight != int64(len(sched)) {
		t.Errorf("maxInflight = %d, want %d", st.maxInflight, len(sched))
	}
}

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(3)), 200, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(3)), 200, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d sends", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets not ascending at %d", i)
		}
	}
	if n := len(a); n < 300 || n > 500 {
		t.Errorf("%d sends in 2 s at 200/s", n)
	}
	if a[len(a)-1] >= 2*time.Second {
		t.Errorf("last send %v past the window", a[len(a)-1])
	}
}

func TestDataOf(t *testing.T) {
	body := []byte("{\n  \"kind\": \"table2\",\n  \"source\": \"cache\",\n  \"data\": {\n    \"data\": 1\n  }\n}\n")
	if got := string(dataOf(body)); got != "{\n    \"data\": 1\n  }" {
		t.Errorf("dataOf = %q", got)
	}
	if dataOf([]byte(`{"error":"x"}`)) != nil {
		t.Error("dataOf found data in an error body")
	}
}

// A server that fails fast must not raise throughput: only answers with
// status 200 that the correctness check did not mark wrong count.
func TestClosedLoopCountsOnlySuccessfulAnswers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		wrong  bool
		good   bool
	}{
		{"500", http.StatusInternalServerError, false, false},
		{"429", http.StatusTooManyRequests, false, false},
		{"wrong", http.StatusOK, true, false},
		{"ok", http.StatusOK, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
			}))
			defer ts.Close()
			c := newClient(ts.URL, 2, newTracer())
			defer c.close()
			d := 100 * time.Millisecond
			ss := closedLoop(context.Background(), c, &source{next: func() string { return "/" }}, 2, d)
			if len(ss) == 0 {
				t.Fatal("no requests issued")
			}
			for i := range ss {
				ss[i].wrong = tc.wrong
			}
			got := pooledThroughput(ss, []segment{{from: 0, to: len(ss), d: d}})
			if !tc.good && got != 0 {
				t.Errorf("throughput = %v req/s, want 0", got)
			}
			if tc.good && got == 0 {
				t.Error("throughput = 0 for successful answers")
			}
		})
	}
}

func TestPointerLRUForgetsEvictedEnvelopes(t *testing.T) {
	l := newPointerLRU(2)
	a, b, c := &serve.StateEnvelope{}, &serve.StateEnvelope{}, &serve.StateEnvelope{}
	if l.touch(a) || l.touch(b) {
		t.Fatal("new envelopes reported as seen")
	}
	if !l.touch(a) { // a is now the most recent, b the oldest
		t.Fatal("a not seen")
	}
	if l.touch(c) { // evicts b
		t.Fatal("c reported as seen")
	}
	if !l.touch(a) || !l.touch(c) {
		t.Error("a recent envelope was forgotten")
	}
	if l.touch(b) {
		t.Error("the evicted envelope is still remembered")
	}
	if len(l.items) != 2 || l.ll.Len() != 2 {
		t.Errorf("set holds %d/%d entries, want 2", len(l.items), l.ll.Len())
	}
}
