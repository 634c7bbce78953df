// Package fault is HypeR's deterministic fault-injection substrate: seeded,
// rule-based injectors attached to named injection points across the dist
// stack (worker dials, eval RPCs, frame ships, heartbeats, coordinator
// state persistence) and the stages of a local evaluation. A chaos run configures rules like "fail the first
// frame ship" or "kill the process on the third eval"; the instrumented call
// sites consult the injector and act on its decision, so the failure modes
// the resilience layer claims to survive are reproducibly triggerable — in
// unit tests, under -race, and against real processes (TestChaos in
// cmd/hyperd, behind the smoke build tag).
//
// The package is nil-safe in the same way internal/obs is: every method has
// a nil-receiver fast path, so production builds that configure no faults
// pay a single pointer comparison and zero allocations per injection point.
// Determinism comes from two sources: rule counters (After/Count select hits
// by ordinal, independent of timing) and a seeded PCG stream for
// probabilistic rules — the same seed and the same hit sequence reproduce
// the same faults.
package fault

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyper/internal/stats"
)

// Point names one instrumented injection site. The dist stack threads these
// through its transport; new points are cheap (a Decide call and a case in
// Rule.validate) and should be added wherever a failure mode needs to be
// reproducible.
type Point string

// The injection points wired through the stack.
const (
	// PointWorkerDial covers every coordinator->worker compute RPC (the
	// eval round trip), coordinator side.
	PointWorkerDial Point = "worker_dial"
	// PointEval is the worker's eval endpoint, worker side.
	PointEval Point = "eval"
	// PointFrameShip covers frame snapshot uploads, coordinator side.
	PointFrameShip Point = "frame_ship"
	// PointHeartbeat is the worker's heartbeat loop, worker side.
	PointHeartbeat Point = "heartbeat"
	// PointPersist is the coordinator's state-file write.
	PointPersist Point = "persist"
	// PointStage is the start of an obs stage (view, blocks, plan, train,
	// eval_shards, fold) of an evaluation whose context carries the injector
	// (WithInjector): the server's local what-if. A rule there is a delay,
	// at the stage its Stage field names (every stage when empty), inside
	// that stage's clock.
	PointStage Point = "stage"
)

// Mode is what happens when a rule fires.
type Mode string

const (
	// ModeError makes the call site fail with an injected error (a worker
	// endpoint answers HTTP 500).
	ModeError Mode = "error"
	// ModeDelay sleeps for the rule's Delay, then proceeds normally.
	ModeDelay Mode = "delay"
	// ModeDrop severs the exchange without an answer: client-side points
	// surface ErrDropped (a transport-style failure), worker endpoints abort
	// the connection mid-response — what a network partition looks like.
	ModeDrop Mode = "drop"
	// ModeKill terminates the process (os.Exit(137), the SIGKILL exit
	// status) the moment the rule fires — mid-request, with no graceful
	// deregistration. Tests override the kill with SetKill.
	ModeKill Mode = "kill"
)

// ErrDropped marks an injected message drop at a client-side point.
var ErrDropped = errors.New("fault: injected drop")

// Rule arms one fault at one point. Counters make firing deterministic:
// the rule skips the first After hits of its point, then fires on every
// eligible hit (subject to Prob) at most Count times.
type Rule struct {
	Point Point
	Mode  Mode
	// After skips the first After eligible hits (0 = fire from the first).
	After int
	// Count caps firings (0 = unlimited).
	Count int
	// Prob fires each eligible hit with this probability from the seeded
	// stream (0 or >= 1 = always).
	Prob float64
	// Delay is the ModeDelay sleep.
	Delay time.Duration
	// Stage names the obs stage a PointStage rule delays ("" = every one).
	Stage string
}

func (r Rule) validate() error {
	switch r.Mode {
	case ModeError, ModeDelay, ModeDrop, ModeKill:
	default:
		return fmt.Errorf("fault: unknown mode %q", r.Mode)
	}
	switch r.Point {
	case PointWorkerDial, PointEval, PointFrameShip, PointHeartbeat, PointPersist:
		if r.Stage != "" {
			return fmt.Errorf("fault: name=%s applies to the stage point only", r.Stage)
		}
	case PointStage:
		if r.Mode != ModeDelay {
			return fmt.Errorf("fault: a stage rule delays; mode %q is not supported there", r.Mode)
		}
	default:
		// No call site consults any other name: the rule could never fire.
		return fmt.Errorf("fault: unknown point %q (want worker_dial|eval|frame_ship|heartbeat|persist|stage)", r.Point)
	}
	if r.Mode == ModeDelay && r.Delay <= 0 {
		return fmt.Errorf("fault: delay rule at %s needs ms=<positive>", r.Point)
	}
	if r.Prob < 0 {
		return fmt.Errorf("fault: negative probability at %s", r.Point)
	}
	return nil
}

// armedRule is one rule plus its hit bookkeeping.
type armedRule struct {
	Rule
	hits  int // eligible hits seen (After counts against these)
	fired int // times the rule actually fired
}

// Decision is what an injection point should do. The zero value means
// proceed normally; Err is non-nil for ModeError/ModeDrop.
type Decision struct {
	Mode Mode
	Err  error
}

// Injector evaluates rules at injection points. A nil *Injector is the
// disabled configuration: every method no-ops (Decide returns the
// zero Decision) without allocating.
type Injector struct {
	mu     sync.Mutex
	rng    *stats.RNG
	rules  []*armedRule
	onFire func(Point, Mode)
	killFn func()
	fired  uint64
}

// New returns an injector armed with rules, drawing probabilistic decisions
// from a stream seeded with seed. No rules returns nil — the disabled
// injector — so call sites stay on the nil fast path.
func New(seed int64, rules ...Rule) (*Injector, error) {
	if len(rules) == 0 {
		return nil, nil
	}
	in := &Injector{
		rng:    stats.NewRNG(seed),
		killFn: func() { os.Exit(137) },
	}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		in.rules = append(in.rules, &armedRule{Rule: r})
	}
	return in, nil
}

// Parse builds an injector from a compact spec: comma-separated rules of the
// form "point:mode[:key=val]...", e.g.
//
//	eval:kill:after=1
//	frame_ship:error:count=1
//	worker_dial:delay:ms=20:count=8
//	heartbeat:drop:prob=0.5
//	stage:delay:ms=5:name=eval_shards
//
// Keys: after (skip the first N hits), count (max firings), prob (firing
// probability), ms (delay milliseconds), name (the stage of a stage rule).
// An empty spec returns nil (faults disabled).
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, raw := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(raw), ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("fault: rule %q wants point:mode[:key=val...]", raw)
		}
		r := Rule{Point: Point(parts[0]), Mode: Mode(parts[1])}
		for _, kv := range parts[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("fault: rule %q: bad option %q (want key=val)", raw, kv)
			}
			switch k {
			case "after":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("fault: rule %q: bad after=%q", raw, v)
				}
				r.After = n
			case "count":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("fault: rule %q: bad count=%q", raw, v)
				}
				r.Count = n
			case "prob":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil || p < 0 || p > 1 {
					return nil, fmt.Errorf("fault: rule %q: bad prob=%q", raw, v)
				}
				r.Prob = p
			case "ms":
				n, err := strconv.Atoi(v)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("fault: rule %q: bad ms=%q", raw, v)
				}
				r.Delay = time.Duration(n) * time.Millisecond
			case "name":
				r.Stage = v
			default:
				return nil, fmt.Errorf("fault: rule %q: unknown option %q", raw, k)
			}
		}
		rules = append(rules, r)
	}
	return New(seed, rules...)
}

// SetOnFire installs a firing observer (metric bridge); nil-safe.
func (in *Injector) SetOnFire(fn func(Point, Mode)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.onFire = fn
	in.mu.Unlock()
}

// SetKill overrides the ModeKill action (tests substitute a recordable
// function for os.Exit); nil-safe.
func (in *Injector) SetKill(fn func()) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.killFn = fn
	in.mu.Unlock()
}

// Fired reports how many faults have been injected so far; nil-safe.
func (in *Injector) Fired() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Decide evaluates the rules for one hit of point. The first rule that
// fires wins: ModeDelay sleeps and proceeds, ModeKill terminates the
// process, ModeError/ModeDrop return a Decision whose Err the call site
// surfaces. A nil injector (or no matching armed rule) returns the zero
// Decision: proceed.
func (in *Injector) Decide(p Point) Decision { return in.decide(p, "") }

// decide is Decide at the start of the named stage (PointStage) or at
// another point (stage "").
func (in *Injector) decide(p Point, stage string) Decision {
	if in == nil {
		return Decision{}
	}
	in.mu.Lock()
	var fire *armedRule
	for _, r := range in.rules {
		if r.Point != p || (r.Stage != "" && r.Stage != stage) {
			continue
		}
		r.hits++
		if r.hits <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		in.fired++
		fire = r
		break
	}
	var onFire func(Point, Mode)
	var killFn func()
	if fire != nil {
		onFire, killFn = in.onFire, in.killFn
	}
	in.mu.Unlock()
	if fire == nil {
		return Decision{}
	}
	if onFire != nil {
		onFire(p, fire.Mode)
	}
	switch fire.Mode {
	case ModeDelay:
		time.Sleep(fire.Delay)
		return Decision{Mode: ModeDelay}
	case ModeKill:
		killFn()
		// Only reachable when a test overrode the kill; treat the survived
		// kill like a dropped exchange so the call site still fails.
		return Decision{Mode: ModeKill, Err: fmt.Errorf("fault: injected kill at %s: %w", p, ErrDropped)}
	case ModeDrop:
		return Decision{Mode: ModeDrop, Err: fmt.Errorf("fault: injected drop at %s: %w", p, ErrDropped)}
	default:
		return Decision{Mode: ModeError, Err: fmt.Errorf("fault: injected error at %s", p)}
	}
}

// Hit is the client-side sugar over Decide: ModeError and ModeDrop (and a
// survived ModeKill) surface as the decision's error, everything else
// proceeds with a nil error. Worker HTTP endpoints use Decide directly so
// drops can abort the connection instead of answering.
func (in *Injector) Hit(p Point) error {
	return in.Decide(p).Err
}

type injectorKey struct{}

// WithInjector returns ctx carrying in, so the stages of an evaluation run
// under ctx cross PointStage (Stage).
func WithInjector(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, injectorKey{}, in)
}

// Stage is the PointStage crossing at the start of the named stage of an
// evaluation under ctx: it sleeps when a rule there fires. Without an
// injector on ctx it does nothing.
func Stage(ctx context.Context, name string) {
	if in, _ := ctx.Value(injectorKey{}).(*Injector); in != nil {
		in.decide(PointStage, name)
	}
}

// String summarizes the armed rules (for startup logs); nil-safe.
func (in *Injector) String() string {
	if in == nil {
		return "disabled"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	parts := make([]string, len(in.rules))
	for i, r := range in.rules {
		parts[i] = fmt.Sprintf("%s:%s(after=%d count=%d fired=%d)", r.Point, r.Mode, r.After, r.Count, r.fired)
		if r.Stage != "" {
			parts[i] = fmt.Sprintf("%s:%s(name=%s after=%d count=%d fired=%d)", r.Point, r.Mode, r.Stage, r.After, r.Count, r.fired)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}
