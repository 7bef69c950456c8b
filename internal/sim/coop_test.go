package sim

import (
	"reflect"
	"strings"
	"testing"
)

// TestCoopVirtualClockOrder pins the scheduling contract: among
// runnable processors the smallest virtual clock runs next (ties to the
// lowest rank). Appending to the shared log without synchronization is
// safe precisely because the scheduler runs one body at a time.
func TestCoopVirtualClockOrder(t *testing.T) {
	var log []string
	m := MustNew(Config{Procs: 4, Params: Params{Tau: 1, Delta: 1}})
	err := m.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Recv(3, 9)
			p.Charge(100)
			p.Send(1, 1, nil, 0)
			p.Send(2, 2, nil, 0)
			log = append(log, "0")
		case 1:
			p.Charge(50)
			p.Recv(0, 1)
			log = append(log, "1")
		case 2:
			p.Charge(5)
			p.Recv(0, 2)
			log = append(log, "2")
		case 3:
			p.Send(0, 9, nil, 0)
			log = append(log, "3")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2 (clock 5) must be resumed before rank 1 (clock 50) once
	// rank 0's sends unblock them both.
	want := []string{"3", "0", "2", "1"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("execution order %v, want %v", log, want)
	}
}

// TestCoopDeadlockExactAndDeterministic: a mismatched receive must be
// reported as a deadlock error instantly (no ticker, no sleeps) and
// with a byte-identical diagnostic on every run.
func TestCoopDeadlockExactAndDeterministic(t *testing.T) {
	run := func() string {
		m := MustNew(Config{Procs: 3})
		err := m.Run(func(p *Proc) {
			p.Recv((p.Rank()+1)%3, 42)
		})
		if err == nil {
			t.Fatal("wedged machine returned no error")
		}
		return err.Error()
	}
	first := run()
	if !strings.Contains(first, "deadlock") {
		t.Fatalf("diagnostic lacks 'deadlock': %q", first)
	}
	if !strings.Contains(first, "processor 0 waits for (src=1, tag=42)") ||
		!strings.Contains(first, "processor 2 waits for (src=0, tag=42)") {
		t.Fatalf("diagnostic lacks the wait-for table: %q", first)
	}
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("deadlock diagnostic not deterministic:\n%q\n%q", first, again)
		}
	}
}

// TestCoopDeadlockPartial: one clean finisher must not hide the wedge
// of the rest.
func TestCoopDeadlockPartial(t *testing.T) {
	m := MustNew(Config{Procs: 3})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			return
		}
		p.Recv(3-p.Rank(), 7)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock diagnostic, got %v", err)
	}
	if strings.Contains(err.Error(), "processor 0 waits") {
		t.Fatalf("finished processor listed as a waiter: %v", err)
	}
}

// TestCoopLongPingPong drives many block/resume cycles through the
// scheduler.
func TestCoopLongPingPong(t *testing.T) {
	m := MustNew(Config{Procs: 2})
	err := m.Run(func(p *Proc) {
		other := 1 - p.Rank()
		for i := 0; i < 2000; i++ {
			if p.Rank() == 0 {
				p.Send(other, i, nil, 0)
				p.Recv(other, i)
			} else {
				p.Recv(other, i)
				p.Send(other, i, nil, 0)
			}
		}
	})
	if err != nil {
		t.Fatalf("false deadlock: %v", err)
	}
}

// TestCoopRunReusable: repeated runs restart clocks and leave no
// scheduler state behind.
func TestCoopRunReusable(t *testing.T) {
	m := MustNew(Config{Procs: 2, Params: Params{Delta: 1}})
	for i := 0; i < 3; i++ {
		if err := m.Run(func(p *Proc) { p.Charge(4) }); err != nil {
			t.Fatal(err)
		}
		if m.MaxClock() != 4 {
			t.Fatalf("run %d: clock %v, want 4", i, m.MaxClock())
		}
	}
}

// TestCoopUndeliveredMessages: the post-run mailbox check reports
// messages nobody received.
func TestCoopUndeliveredMessages(t *testing.T) {
	m := MustNew(Config{Procs: 2})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, nil, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "undelivered") {
		t.Fatalf("expected undelivered-message error, got %v", err)
	}
}

// TestPanicPreferredOverInducedDeadlock is the regression test for the
// masked-root-cause bug: when one processor panics, its peers wedge
// waiting for messages it will never send, and before the fix Run
// returned the lowest-rank error — usually a secondary deadlock
// diagnostic — instead of the originating panic. Run must name the
// real panic.
func TestPanicPreferredOverInducedDeadlock(t *testing.T) {
	m := MustNew(Config{Procs: 4})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 2 {
			panic("root cause on rank 2")
		}
		p.Recv(2, 5) // rank 2 dies before sending: peers wedge
	})
	if err == nil {
		t.Fatal("no error surfaced")
	}
	if !strings.Contains(err.Error(), "processor 2 panicked: root cause on rank 2") {
		t.Errorf("root-cause panic masked: %v", err)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Errorf("induced deadlock diagnostics not suppressed: %v", err)
	}
}

// TestRunJoinsConcurrentErrors: several non-deadlock failures are all
// reported, aggregated with errors.Join (before the fix only the
// lowest-rank error surfaced).
func TestRunJoinsConcurrentErrors(t *testing.T) {
	m := MustNew(Config{Procs: 4})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 1 || p.Rank() == 3 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("no error surfaced")
	}
	for _, want := range []string{"processor 1 panicked", "processor 3 panicked"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error misses %q: %v", want, err)
		}
	}
}

// TestTakeZeroesVacatedSlot is the regression test for the payload
// retention leak: compacting the queue on receive must clear the
// vacated tail slot so the removed message's payload becomes
// collectable.
func TestTakeZeroesVacatedSlot(t *testing.T) {
	m := MustNew(Config{Procs: 1})
	err := m.Run(func(p *Proc) {
		p.Send(0, 1, "keep", 0)
		p.Send(0, 2, "leak", 0)
		backing := p.box.queue[:2]
		if got, _ := p.Recv(0, 1); got != "keep" {
			t.Errorf("received %v, want the tag-1 message", got)
		}
		if backing[1].payload != nil {
			t.Errorf("vacated tail slot still references payload %v", backing[1].payload)
		}
		if len(p.box.queue) != 1 || p.box.queue[0].payload != "leak" {
			t.Errorf("queue corrupted by compaction: %+v", p.box.queue)
		}
		p.Recv(0, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNewRejectsRetiredSched: the cooperative scheduler is the only
// mode, so New accepts only the zero Sched and names any other value.
func TestNewRejectsRetiredSched(t *testing.T) {
	if _, err := New(Config{Procs: 2, Sched: SchedCooperative}); err != nil {
		t.Fatalf("SchedCooperative rejected: %v", err)
	}
	_, err := New(Config{Procs: 2, Sched: 1})
	if err == nil || !strings.Contains(err.Error(), "scheduler 1") {
		t.Fatalf("Sched(1) accepted or undiagnosed: %v", err)
	}
}
