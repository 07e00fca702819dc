package arch

import (
	"fmt"
	"io"

	"alveare/internal/isa"
)

// EventKind classifies one architectural event of the execution trace.
type EventKind uint8

const (
	// EvExec: one instruction dispatched (pc, instr and dp are valid).
	EvExec EventKind = iota
	// EvMatch: the EoR completed a match ending at dp.
	EvMatch
	// EvRollback: a misprediction was recovered from the speculation
	// stack; pc/dp are the restored values.
	EvRollback
	// EvScan: the multi-CU scan advanced the candidate start to dp.
	EvScan
	// EvAttempt: a new match attempt was anchored at dp.
	EvAttempt
	// EvSpecPush: a speculation snapshot was pushed; pc/dp are the
	// recorded alternative path.
	EvSpecPush
	// EvSpecFlush: pending speculation snapshots were discarded
	// unconsumed (the attempt resolved); dp carries the flushed count.
	EvSpecFlush
)

// String returns the event mnemonic.
func (k EventKind) String() string {
	switch k {
	case EvExec:
		return "exec"
	case EvMatch:
		return "match"
	case EvRollback:
		return "rollback"
	case EvScan:
		return "scan"
	case EvAttempt:
		return "attempt"
	case EvSpecPush:
		return "spec-push"
	case EvSpecFlush:
		return "spec-flush"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// TraceEvent is one record of the execution trace.
type TraceEvent struct {
	Kind       EventKind
	Cycle      int64
	PC, DP     int
	StackDepth int
	Instr      isa.Instr // valid for EvExec
}

// Tracer receives trace events; installed with Core.SetTracer. A nil
// tracer (the default) costs nothing.
type Tracer func(TraceEvent)

// SetTracer installs (or, with nil, removes) the execution tracer.
func (c *Core) SetTracer(t Tracer) { c.tracer = t }

// TextTracer returns a Tracer that renders events as an aligned log on
// w, the form `alvearerun -trace` prints.
func TextTracer(w io.Writer) Tracer {
	return func(ev TraceEvent) {
		switch ev.Kind {
		case EvExec:
			fmt.Fprintf(w, "%10d  pc=%04d dp=%06d stk=%02d  %s\n",
				ev.Cycle, ev.PC, ev.DP, ev.StackDepth, ev.Instr.String())
		default:
			fmt.Fprintf(w, "%10d  %-8s pc=%04d dp=%06d stk=%02d\n",
				ev.Cycle, ev.Kind, ev.PC, ev.DP, ev.StackDepth)
		}
	}
}

// emit forwards an event to the tracer when one is installed (small
// enough to inline, so an untraced call site costs one nil check).
func (m *machine) emit(kind EventKind, pc, dp int) {
	if m.core.tracer != nil {
		m.trace(kind, pc, dp)
	}
}

// trace builds and delivers one event. Exec and match events carry the
// instruction at pc, read from the program (the canonical form), not
// from the decoded micro-ops.
func (m *machine) trace(kind EventKind, pc, dp int) {
	ev := TraceEvent{
		Kind:       kind,
		Cycle:      m.st.Cycles,
		PC:         pc,
		DP:         dp,
		StackDepth: len(m.frames) + len(m.choices),
	}
	if kind == EvExec || kind == EvMatch {
		ev.Instr = m.core.prog.Code[pc]
	}
	m.core.tracer(ev)
}
