package sim

import "fmt"

// FailureKind classifies why a task attempt failed.
type FailureKind uint8

const (
	// FailConfig is an unsatisfiable setup: unknown tier, unknown op kind,
	// a planner contract violation. Never retried.
	FailConfig FailureKind = iota
	// FailIO is a filesystem-semantic error: missing file, tier capacity
	// exhausted, node-local visibility violation. Never retried — re-running
	// the same op against the same state fails the same way.
	FailIO
	// FailTransient is an injected transient I/O error (faults.Schedule
	// IOErrorRates). Retried with capped exponential backoff.
	FailTransient
	// FailNodeCrash is an injected node crash (faults.Schedule Crashes).
	// The task is re-executed from the top of its script on a surviving
	// node.
	FailNodeCrash
	// FailPartition is an injected network partition (faults.Schedule
	// Partitions with the fail-fast policy) cutting the op's link path.
	// Retried with capped exponential backoff: unlike a node crash no data
	// is lost — the bytes still exist on the far side of the cut — so the
	// retried op re-routes and succeeds once the partition heals.
	FailPartition
)

var failureKindNames = [...]string{"config", "io", "transient", "node-crash", "partition"}

func (k FailureKind) String() string {
	if int(k) < len(failureKindNames) {
		return failureKindNames[k]
	}
	return fmt.Sprintf("failure(%d)", k)
}

// Retryable reports whether the engine's recovery policies apply to this
// failure kind.
func (k FailureKind) Retryable() bool {
	return k == FailTransient || k == FailNodeCrash || k == FailPartition
}

// Sentinel errors matching each FailureKind through errors.Is: callers
// check a run's failure class without unpacking the *TaskError, e.g.
// errors.Is(err, sim.ErrNodeCrash).
var (
	// ErrConfig matches TaskErrors with Kind FailConfig, and the setup
	// errors Engine.Run returns before the first event when the fault
	// schedule, topology, or checkpoint policy does not fit the cluster.
	ErrConfig = fmt.Errorf("sim: configuration failure")
	// ErrIO matches TaskErrors with Kind FailIO.
	ErrIO = fmt.Errorf("sim: I/O failure")
	// ErrTransient matches TaskErrors with Kind FailTransient.
	ErrTransient = fmt.Errorf("sim: transient I/O failure")
	// ErrNodeCrash matches TaskErrors with Kind FailNodeCrash.
	ErrNodeCrash = fmt.Errorf("sim: node crash")
	// ErrPartition matches TaskErrors with Kind FailPartition.
	ErrPartition = fmt.Errorf("sim: network partition")
)

// Sentinel returns the errors.Is target for this failure kind, or nil for
// kinds without one.
func (k FailureKind) Sentinel() error {
	switch k {
	case FailConfig:
		return ErrConfig
	case FailIO:
		return ErrIO
	case FailTransient:
		return ErrTransient
	case FailNodeCrash:
		return ErrNodeCrash
	case FailPartition:
		return ErrPartition
	}
	return nil
}

// TaskError is the typed error Engine.Run returns when a task cannot
// complete: which task, which script op, on which node, after how many
// attempts, and why. It replaces the engine's former run-path panics.
type TaskError struct {
	// Task is the failing task's name.
	Task string
	// OpIndex is the script index of the failing op (-1 when the failure is
	// not tied to one op, e.g. a node crash mid-compute).
	OpIndex int
	// Op is the failing op's kind.
	Op OpKind
	// Path is the file the op addressed ("" for compute).
	Path string
	// Node is where the attempt ran ("" if never placed).
	Node string
	// Attempt is the 1-based attempt number that failed.
	Attempt int
	// Kind classifies the failure.
	Kind FailureKind
	// Cause is the underlying error.
	Cause error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("sim: task %s op %d (%s %s) attempt %d on %s failed (%s): %v",
		e.Task, e.OpIndex, e.Op, e.Path, e.Attempt, e.Node, e.Kind, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *TaskError) Unwrap() error { return e.Cause }

// Is matches the sentinel for the error's failure kind, so
// errors.Is(err, sim.ErrNodeCrash) works on errors wrapping a *TaskError.
// Cause-chain matching still happens through Unwrap.
func (e *TaskError) Is(target error) bool {
	s := e.Kind.Sentinel()
	return s != nil && target == s
}

// configError marks a setup error: Engine.Run met it before the first event.
// It reads as the wrapped error and matches ErrConfig.
type configError struct{ err error }

func (c configError) Error() string        { return c.err.Error() }
func (c configError) Unwrap() error        { return c.err }
func (c configError) Is(target error) bool { return target == ErrConfig }

// PartitionError is the cause of a FailPartition task failure: the
// partition cut that severed the op's link path. Reachable through
// errors.As on the run error.
type PartitionError struct {
	// A, B are the partitioned location pair.
	A, B string
	// Link is the cut link on the op's route.
	Link string
}

func (p *PartitionError) Error() string {
	return fmt.Sprintf("network partition %s|%s cut link %s", p.A, p.B, p.Link)
}

// transientError is the sentinel cause for injected transient I/O failures;
// the engine classifies it as FailTransient.
type transientError struct {
	tier string
}

func (t transientError) Error() string {
	return fmt.Sprintf("injected transient I/O error on tier %s", t.tier)
}

// Failure is one recorded task failure in a Result — fatal or recovered.
type Failure struct {
	// Task is the failing task.
	Task string
	// Time is the virtual time of the failure.
	Time float64
	// OpIndex is the failing script op (-1 for mid-task node crashes).
	OpIndex int
	// Kind is the FailureKind string.
	Kind string
	// Detail describes the cause.
	Detail string
	// Recovered reports whether a retry was scheduled (false means the run
	// aborted here).
	Recovered bool
}
