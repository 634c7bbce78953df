package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if d := in.Decide(PointEval); d.Mode != "" || d.Err != nil {
		t.Fatalf("nil injector decided %+v", d)
	}
	if err := in.Hit(PointEval); err != nil {
		t.Fatalf("nil injector hit: %v", err)
	}
	if in.Fired() != 0 {
		t.Fatalf("nil injector fired %d", in.Fired())
	}
	in.SetOnFire(nil)
	in.SetKill(nil)
	if s := in.String(); s != "disabled" {
		t.Fatalf("nil injector String = %q", s)
	}
}

func TestNewEmptyReturnsNil(t *testing.T) {
	in, err := New(1)
	if err != nil || in != nil {
		t.Fatalf("New() = %v, %v; want nil, nil", in, err)
	}
	in, err = Parse("", 1)
	if err != nil || in != nil {
		t.Fatalf("Parse(\"\") = %v, %v; want nil, nil", in, err)
	}
}

func TestAfterAndCount(t *testing.T) {
	in, err := New(1, Rule{Point: PointEval, Mode: ModeError, After: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Hit 1 skipped (after=1), hits 2-3 fire (count=2), hit 4+ exhausted.
	want := []bool{false, true, true, false, false}
	for i, w := range want {
		err := in.Hit(PointEval)
		if (err != nil) != w {
			t.Fatalf("hit %d: err=%v, want fire=%v", i+1, err, w)
		}
	}
	if got := in.Fired(); got != 2 {
		t.Fatalf("Fired() = %d, want 2", got)
	}
}

func TestPointsAreIndependent(t *testing.T) {
	in, err := New(1, Rule{Point: PointFrameShip, Mode: ModeError, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Hit(PointEval); err != nil {
		t.Fatalf("unmatched point fired: %v", err)
	}
	if err := in.Hit(PointFrameShip); err == nil {
		t.Fatal("armed point did not fire")
	}
	if err := in.Hit(PointFrameShip); err != nil {
		t.Fatalf("count=1 rule fired twice: %v", err)
	}
}

func TestDropWrapsErrDropped(t *testing.T) {
	in, err := New(1, Rule{Point: PointWorkerDial, Mode: ModeDrop})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Hit(PointWorkerDial); !errors.Is(err, ErrDropped) {
		t.Fatalf("drop error = %v, want ErrDropped", err)
	}
}

func TestKillUsesOverride(t *testing.T) {
	in, err := New(1, Rule{Point: PointEval, Mode: ModeKill, After: 1})
	if err != nil {
		t.Fatal(err)
	}
	killed := 0
	in.SetKill(func() { killed++ })
	if err := in.Hit(PointEval); err != nil || killed != 0 {
		t.Fatalf("kill fired early: err=%v killed=%d", err, killed)
	}
	err = in.Hit(PointEval)
	if killed != 1 {
		t.Fatalf("killed = %d, want 1", killed)
	}
	// A survived kill must still fail the exchange.
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("survived kill error = %v, want ErrDropped", err)
	}
}

func TestDelayProceeds(t *testing.T) {
	in, err := New(1, Rule{Point: PointEval, Mode: ModeDelay, Delay: 5 * time.Millisecond, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := in.Hit(PointEval); err != nil {
		t.Fatalf("delay surfaced an error: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delay slept only %v", d)
	}
}

// TestStageDelay: a stage rule delays only the stage it names, only under a
// context carrying its injector, and only delays; name= belongs to it alone.
func TestStageDelay(t *testing.T) {
	in, err := Parse("stage:delay:ms=5:name=train", 1)
	if err != nil {
		t.Fatal(err)
	}
	Stage(context.Background(), "train") // no injector on the context
	ctx := WithInjector(context.Background(), in)
	Stage(ctx, "view")
	if in.Fired() != 0 {
		t.Fatalf("fired %d times before reaching the named stage", in.Fired())
	}
	start := time.Now()
	Stage(ctx, "train")
	if d := time.Since(start); in.Fired() != 1 || d < 5*time.Millisecond {
		t.Fatalf("train stage: fired %d, slept %v", in.Fired(), d)
	}
	for _, spec := range []string{"stage:error", "stage:kill:name=train", "eval:error:name=train"} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted a rule no stage crossing can honour", spec)
		}
	}
}

func TestProbIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		in, err := New(seed, Rule{Point: PointHeartbeat, Mode: ModeError, Prob: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 32)
		for i := range out {
			out[i] = in.Hit(PointHeartbeat) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("prob=0.5 fired %d/%d times — not probabilistic", fires, len(a))
	}
}

func TestOnFireObserver(t *testing.T) {
	in, err := New(1, Rule{Point: PointPersist, Mode: ModeError, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	var gotP Point
	var gotM Mode
	in.SetOnFire(func(p Point, m Mode) { gotP, gotM = p, m })
	in.Hit(PointPersist)
	if gotP != PointPersist || gotM != ModeError {
		t.Fatalf("observer saw (%s, %s)", gotP, gotM)
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("eval:kill:after=1,frame_ship:error:count=1,worker_dial:delay:ms=20:count=8", 7)
	if err != nil {
		t.Fatal(err)
	}
	if in == nil {
		t.Fatal("Parse returned nil for non-empty spec")
	}
	if len(in.rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(in.rules))
	}
	r := in.rules[2].Rule
	if r.Point != PointWorkerDial || r.Mode != ModeDelay || r.Delay != 20*time.Millisecond || r.Count != 8 {
		t.Fatalf("rule 3 = %+v", r)
	}

	bad := []string{
		"eval",                // no mode
		"eval:explode",        // unknown mode
		"eval:error:bogus=1",  // unknown option
		"eval:error:after",    // not key=val
		"eval:delay",          // delay without ms
		"eval:error:prob=1.5", // prob out of range
		"eval:error:count=-1", // negative count
		":error",              // empty point
		"eval:delay:ms=0",     // non-positive delay
		"eval:error:after=-2", // negative after
		"eval:error:prob=x",   // unparsable float
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}

	// A rule at a point no call site consults can never fire: a typo, or the
	// removed fit point, is an error that names the points that exist.
	for _, spec := range []string{"evel:kill", "fit:error"} {
		_, err := Parse(spec, 1)
		if err == nil || !strings.Contains(err.Error(), "worker_dial|eval|frame_ship|heartbeat|persist") {
			t.Errorf("Parse(%q) = %v, want an error naming the valid points", spec, err)
		}
	}
}

func BenchmarkDecideDisabled(b *testing.B) {
	var in *Injector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := in.Hit(PointEval); err != nil {
			b.Fatal(err)
		}
	}
}
