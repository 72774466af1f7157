package core

import (
	"pfi/internal/message"
	"pfi/internal/script"
	"pfi/internal/simtime"
)

// This file makes the PFI layer snapshot-capable (see internal/snapshot).
// A Layer's mutable state is its random stream position, its sync bus, and
// the two filters; each filter adds script state (interpreter globals and
// procs), the hold queue, pending delayed forwards, and counters. Pointers
// — held messages, pending events, compiled scripts, hooks — are retained
// so the closures the scheduler holds stay valid; message content is
// saved/restored by value.

// busState is a SyncBus's flags and pending waiters.
type busState struct {
	flags   map[string]bool
	waiters map[string][]func()
}

// SnapshotState captures the bus. Waiter closures are retained by pointer:
// a waiter registered before the capture fires identically in every forked
// child because the filter state it captures is itself restored.
func (b *SyncBus) SnapshotState() any {
	st := &busState{
		flags:   make(map[string]bool, len(b.flags)),
		waiters: make(map[string][]func(), len(b.waiters)),
	}
	for k, v := range b.flags {
		st.flags[k] = v
	}
	for k, v := range b.waiters {
		st.waiters[k] = append([]func(){}, v...)
	}
	return st
}

// RestoreState rewinds the bus. Waiters registered after the capture are
// dropped; waiters consumed since the capture are re-registered.
func (b *SyncBus) RestoreState(state any) {
	st := state.(*busState)
	b.flags = make(map[string]bool, len(st.flags))
	for k, v := range st.flags {
		b.flags[k] = v
	}
	b.waiters = make(map[string][]func(), len(st.waiters))
	for k, v := range st.waiters {
		b.waiters[k] = append([]func(){}, v...)
	}
}

// heldMsg is one hold-queue entry: the message pointer plus its content at
// capture time (a held message released during a forked child is mutated
// downstream, so content must roll back).
type heldMsg struct {
	m  *message.Message
	st message.State
}

// delayedMsg is one pending delayed forward.
type delayedMsg struct {
	ev *simtime.Event
	m  *message.Message
	st message.State
}

// filterState is one filter's mutable state.
type filterState struct {
	compiled *script.Script
	hook     Hook
	held     []heldMsg
	delayed  []delayedMsg
	stats    Stats
	interp   any
}

func (f *Filter) snapshotState() *filterState {
	st := &filterState{
		compiled: f.compiled,
		hook:     f.hook,
		stats:    f.stats,
		interp:   f.interp.SnapshotState(),
	}
	st.held = make([]heldMsg, len(f.held))
	for i, m := range f.held {
		st.held[i] = heldMsg{m: m, st: m.SaveState()}
	}
	st.delayed = make([]delayedMsg, 0, len(f.delayed))
	for ev, m := range f.delayed {
		st.delayed = append(st.delayed, delayedMsg{ev: ev, m: m, st: m.SaveState()})
	}
	return st
}

func (f *Filter) restoreState(st *filterState) {
	f.compiled = st.compiled
	f.hook = st.hook
	f.stats = st.stats
	f.interp.RestoreState(st.interp)
	f.held = f.held[:0]
	for _, h := range st.held {
		h.m.RestoreState(h.st)
		f.held = append(f.held, h.m)
	}
	f.delayed = make(map[*simtime.Event]*message.Message, len(st.delayed))
	for _, d := range st.delayed {
		d.m.RestoreState(d.st)
		f.delayed[d.ev] = d.m
	}
}

// layerState is a PFI layer's mutable state.
type layerState struct {
	rngMark uint64
	bus     any
	send    *filterState
	recv    *filterState
}

// SnapshotState captures the layer for the snapshot registry.
func (l *Layer) SnapshotState() any {
	return &layerState{
		rngMark: l.rng.Mark(),
		bus:     l.bus.SnapshotState(),
		send:    l.send.snapshotState(),
		recv:    l.recv.snapshotState(),
	}
}

// RestoreState rewinds the layer. When several layers share one SyncBus,
// each restores it with an identical capture taken at the same instant, so
// the repeats are harmless.
func (l *Layer) RestoreState(state any) {
	st := state.(*layerState)
	l.rng.Rewind(st.rngMark)
	l.bus.RestoreState(st.bus)
	l.send.restoreState(st.send)
	l.recv.restoreState(st.recv)
}
