package core

import (
	"fmt"
	"time"

	"pfi/internal/dist"
	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/script"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// Direction distinguishes the two filters of a PFI layer.
type Direction int

const (
	// Send is the filter run when a message is pushed down the stack.
	Send Direction = iota + 1
	// Receive is the filter run when a message is popped up the stack.
	Receive
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Send {
		return "send"
	}
	return "receive"
}

// Stats counts what a filter did to traffic.
type Stats struct {
	Seen       int
	Dropped    int
	Delayed    int
	Duplicated int
	Held       int
	Released   int
	Injected   int
}

// Layer is the probe/fault-injection layer. It implements stack.Layer and
// is inserted below (or above) a target protocol with Stack.InsertBelow.
type Layer struct {
	base stack.Base
	env  *stack.Env
	stub Stub
	log  *trace.Log
	rng  *dist.Source
	bus  *SyncBus
	send *Filter
	recv *Filter
}

var _ stack.Layer = (*Layer)(nil)

// Option configures a Layer.
type Option func(*Layer)

// WithStub installs the packet recognition/generation stub.
func WithStub(s Stub) Option {
	return func(l *Layer) { l.stub = s }
}

// WithTrace directs msg_log and fault events into lg.
func WithTrace(lg *trace.Log) Option {
	return func(l *Layer) { l.log = lg }
}

// WithRand seeds the probabilistic script utilities.
func WithRand(r *dist.Source) Option {
	return func(l *Layer) { l.rng = r }
}

// WithSyncBus joins the layer to a cross-node synchronization bus.
func WithSyncBus(b *SyncBus) Option {
	return func(l *Layer) { l.bus = b }
}

// WithName overrides the layer's stack name (default "pfi").
func WithName(name string) Option {
	return func(l *Layer) { l.base = stack.NewBase(name) }
}

// NewLayer builds a PFI layer for the given node environment.
func NewLayer(env *stack.Env, opts ...Option) *Layer {
	l := &Layer{
		base: stack.NewBase("pfi"),
		env:  env,
		stub: NopStub{},
		log:  trace.NewLog(),
		rng:  dist.NewSource(1),
		bus:  NewSyncBus(),
	}
	for _, opt := range opts {
		opt(l)
	}
	l.send = newFilter(l, Send)
	l.recv = newFilter(l, Receive)
	// Intrinsic globals: scripts may read (and overwrite) them.
	for _, f := range []*Filter{l.send, l.recv} {
		f.interp.SetVar("pfi_node", l.env.Node)
		f.interp.SetVar("pfi_dir", f.dir.String())
		f.interp.SetVar("pfi_protocol", l.stub.Protocol())
	}
	return l
}

// Name implements stack.Layer.
func (l *Layer) Name() string { return l.base.Name() }

// Wire implements stack.Layer.
func (l *Layer) Wire(down, up stack.Sink) { l.base.Wire(down, up) }

// HandleDown implements stack.Layer: it runs the send filter.
func (l *Layer) HandleDown(m *message.Message) error {
	return l.send.process(m)
}

// HandleUp implements stack.Layer: it runs the receive filter.
func (l *Layer) HandleUp(m *message.Message) error {
	return l.recv.process(m)
}

// SendFilter returns the send-side filter.
func (l *Layer) SendFilter() *Filter { return l.send }

// ReceiveFilter returns the receive-side filter.
func (l *Layer) ReceiveFilter() *Filter { return l.recv }

// SetSendScript installs the send filter script (parsed once).
func (l *Layer) SetSendScript(src string) error { return l.send.SetScript(src) }

// SetReceiveScript installs the receive filter script (parsed once).
func (l *Layer) SetReceiveScript(src string) error { return l.recv.SetScript(src) }

// Inject generates a message via the layer's stub and forwards it in the
// given direction — the driver-side fault-injection verb. Unlike the script
// command xInject it runs outside any filter pass, so addressing must come
// from explicit "src"/"dst" fields.
func (l *Layer) Inject(dir Direction, typ string, fields map[string]string) error {
	f := l.send
	if dir == Receive {
		f = l.recv
	}
	return f.inject(typ, fields, dir)
}

// Trace returns the layer's event log.
func (l *Layer) Trace() *trace.Log { return l.log }

// Bus returns the layer's synchronization bus.
func (l *Layer) Bus() *SyncBus { return l.bus }

// Stub returns the layer's packet stub.
func (l *Layer) Stub() Stub { return l.stub }

// forward continues a message in the filter's direction.
func (l *Layer) forward(dir Direction, m *message.Message) error {
	if dir == Send {
		return l.base.Down(m)
	}
	return l.base.Up(m)
}

// verdict accumulates the actions a filter run requested for the current
// message. The zero verdict forwards unchanged.
type verdict struct {
	drop     bool
	hold     bool
	delay    time.Duration
	dupExtra int           // extra copies to forward
	dupGap   time.Duration // spacing between copies
}

// Hook is a Go-native filter, for callers who prefer compiled filters to
// Tcl. It runs after the script (if both are set).
type Hook func(ctx *HookCtx) error

// HookCtx exposes the current message and the fault-injection verbs to a
// Go hook.
type HookCtx struct {
	filter *Filter
	// Msg is the message traversing the filter.
	Msg *message.Message
	// Info is the stub's recognition result.
	Info Info
	// Dir is the filter's direction.
	Dir Direction
}

// Now returns the virtual time.
func (c *HookCtx) Now() time.Duration { return time.Duration(c.filter.layer.env.Now()) }

// Drop discards the current message.
func (c *HookCtx) Drop() { c.filter.cur.drop = true }

// Delay forwards the current message after d.
func (c *HookCtx) Delay(d time.Duration) { c.filter.cur.delay = d }

// Duplicate forwards n extra copies spaced gap apart.
func (c *HookCtx) Duplicate(n int, gap time.Duration) {
	c.filter.cur.dupExtra = n
	c.filter.cur.dupGap = gap
}

// Hold parks the message on the filter's hold queue. The message joins the
// queue immediately, so a Release in the same filter run includes it.
func (c *HookCtx) Hold() { c.filter.holdNow() }

// Release forwards up to n held messages in FIFO order (n<=0: all).
func (c *HookCtx) Release(n int) error { return c.filter.release(n, false) }

// ReleaseLIFO forwards all held messages newest-first (reordering).
func (c *HookCtx) ReleaseLIFO() error { return c.filter.release(0, true) }

// Inject generates a message via the stub and forwards it in the filter's
// direction.
func (c *HookCtx) Inject(typ string, fields map[string]string) error {
	return c.filter.inject(typ, fields, c.Dir)
}

// Log writes a trace entry stamped with the node and virtual time.
func (c *HookCtx) Log(kind, note string) {
	f := c.filter
	f.layer.log.Addf(f.layer.env.Now(), f.layer.env.Node, kind, c.Info.Type, 0, note)
}

// Filter is one direction of a PFI layer: an interpreter, an optional
// parsed script, an optional Go hook, and a hold queue.
type Filter struct {
	layer    *Layer
	dir      Direction
	interp   *script.Interp
	compiled *script.Script
	hook     Hook
	held     []*message.Message
	stats    Stats

	// delayed tracks messages parked on pending pfi-delayed-forward
	// events, so world snapshots can rewind their content: a forward that
	// fires during one forked child mutates the message (headers are
	// popped downstream), and the next child re-fires the same event.
	delayed map[*simtime.Event]*message.Message

	// Per-message state, valid only during process(). verdictBuf and
	// hookCtx are reused across messages — process() is strictly
	// sequential per filter, so one buffer of each suffices and the
	// per-message allocations disappear.
	curMsg      *message.Message
	curInfo     Info
	cur         *verdict
	verdictBuf  verdict
	hookCtx     HookCtx
	fieldsReady bool // curInfo.Fields materialized (dst/src merged)
}

func newFilter(l *Layer, dir Direction) *Filter {
	f := &Filter{layer: l, dir: dir, interp: script.New(),
		delayed: make(map[*simtime.Event]*message.Message)}
	f.hookCtx = HookCtx{filter: f, Dir: dir}
	registerFilterCommands(f)
	return f
}

// Dir returns the filter's direction.
func (f *Filter) Dir() Direction { return f.dir }

// Interp exposes the filter's interpreter so tests and experiment drivers
// can read/set script state (the paper's driver/PFI communication).
func (f *Filter) Interp() *script.Interp { return f.interp }

// Stats returns a copy of the filter's counters.
func (f *Filter) Stats() Stats { return f.stats }

// HeldCount reports the hold-queue length.
func (f *Filter) HeldCount() int { return len(f.held) }

// SetScript parses and installs the filter script. An empty src clears it.
func (f *Filter) SetScript(src string) error {
	if src == "" {
		f.compiled = nil
		return nil
	}
	s, err := script.Parse(src)
	if err != nil {
		return fmt.Errorf("core: %s filter script: %w", f.dir, err)
	}
	f.compiled = s
	return nil
}

// SetHook installs a Go-native filter hook (nil clears).
func (f *Filter) SetHook(h Hook) { f.hook = h }

// peer returns the other filter of the same layer.
func (f *Filter) peer() *Filter {
	if f.dir == Send {
		return f.layer.recv
	}
	return f.layer.send
}

// process runs the filter over one message and applies the verdict.
func (f *Filter) process(m *message.Message) error {
	f.stats.Seen++
	if f.compiled == nil && f.hook == nil {
		return f.layer.forward(f.dir, m)
	}
	// Recognition falls back to UNRECOGNIZED: the PFI layer must be
	// transparent for traffic its stub does not understand.
	info, err := f.layer.stub.Recognize(m)
	if err != nil {
		info = Info{Type: "UNRECOGNIZED"}
	}
	f.verdictBuf = verdict{}
	f.curMsg, f.curInfo, f.cur = m, info, &f.verdictBuf
	f.fieldsReady = false
	defer func() { f.curMsg, f.cur = nil, nil }()

	if f.compiled != nil {
		if _, err := f.interp.Run(f.compiled); err != nil {
			return fmt.Errorf("core: %s filter on %s: %w", f.dir, f.layer.env.Node, err)
		}
	}
	if f.hook != nil {
		// Hooks see the full Fields map (with dst/src merged), so force it.
		f.materializeFields()
		f.hookCtx.Msg, f.hookCtx.Info = m, f.curInfo
		err := f.hook(&f.hookCtx)
		f.hookCtx.Msg, f.hookCtx.Info = nil, Info{}
		if err != nil {
			return fmt.Errorf("core: %s hook on %s: %w", f.dir, f.layer.env.Node, err)
		}
	}
	return f.apply(m, &f.verdictBuf)
}

// materializeFields builds curInfo.Fields on first use, surfacing the
// network addressing attributes so scripts can filter by destination ("the
// messages were dropped based on destination address", the paper's
// partition experiment) without stub support. Deferring this skips the map
// allocation and attr merge for traffic the script never inspects.
func (f *Filter) materializeFields() {
	if f.fieldsReady {
		return
	}
	f.fieldsReady = true
	if f.curInfo.Fields == nil {
		f.curInfo.Fields = map[string]string{}
	}
	if s, ok := attrString(f.curMsg, netsim.AttrDst); ok && f.curInfo.Fields["dst"] == "" {
		f.curInfo.Fields["dst"] = s
	}
	if s, ok := attrString(f.curMsg, netsim.AttrSrc); ok && f.curInfo.Fields["src"] == "" {
		f.curInfo.Fields["src"] = s
	}
}

// fieldValue reads one recognized field without forcing the Fields map:
// empty dst/src fall back to the message's addressing attributes, exactly
// the merge materializeFields performs.
func (f *Filter) fieldValue(name string) string {
	if v := f.curInfo.Field(name); v != "" {
		return v
	}
	if f.fieldsReady || f.curMsg == nil || (name != "dst" && name != "src") {
		return ""
	}
	key := netsim.AttrSrc
	if name == "dst" {
		key = netsim.AttrDst
	}
	s, _ := attrString(f.curMsg, key)
	return s
}

// holdNow parks the current message on the hold queue immediately (so a
// release later in the same script run sees it) and marks the verdict so
// apply does not also forward it.
func (f *Filter) holdNow() {
	if f.cur.hold {
		return // already held
	}
	f.cur.hold = true
	f.stats.Held++
	f.held = append(f.held, f.curMsg)
}

// apply executes the accumulated verdict.
func (f *Filter) apply(m *message.Message, v *verdict) error {
	switch {
	case v.hold:
		// Already on the hold queue (holdNow); nothing to forward. Hold
		// takes precedence over drop: a held message has been claimed by
		// the script for later release.
		return nil
	case v.drop:
		f.stats.Dropped++
		return nil
	}
	var firstErr error
	forward := func(msg *message.Message, after time.Duration) {
		if after <= 0 {
			if err := f.layer.forward(f.dir, msg); err != nil && firstErr == nil {
				firstErr = err
			}
			return
		}
		var ev *simtime.Event
		ev = f.layer.env.Sched.After(after, "pfi-delayed-forward", func() {
			delete(f.delayed, ev)
			// Errors inside a delayed forward have no caller to return to.
			_ = f.layer.forward(f.dir, msg)
		})
		f.delayed[ev] = msg
	}
	if v.delay > 0 {
		f.stats.Delayed++
	}
	forward(m, v.delay)
	if v.dupExtra > 0 {
		f.stats.Duplicated += v.dupExtra
		for i := 1; i <= v.dupExtra; i++ {
			forward(m.Clone(), v.delay+time.Duration(i)*v.dupGap)
		}
	}
	return firstErr
}

// release forwards up to n held messages (n<=0: all), LIFO if reverse.
func (f *Filter) release(n int, reverse bool) error {
	if n <= 0 || n > len(f.held) {
		n = len(f.held)
	}
	batch := f.held[:n]
	f.held = f.held[n:]
	if reverse {
		for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
			batch[i], batch[j] = batch[j], batch[i]
		}
	}
	var firstErr error
	for _, m := range batch {
		f.stats.Released++
		if err := f.layer.forward(f.dir, m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// inject generates a message via the stub and forwards it. The injected
// message needs network addressing to be credible: explicit "src"/"dst"
// fields win, and otherwise it inherits the current message's attributes —
// so a probe forged inside a filter run looks like it belongs to the flow
// being filtered.
func (f *Filter) inject(typ string, fields map[string]string, dir Direction) error {
	m, err := f.layer.stub.Generate(typ, fields)
	if err != nil {
		return err
	}
	for _, key := range []string{netsim.AttrSrc, netsim.AttrDst} {
		short := "src"
		if key == netsim.AttrDst {
			short = "dst"
		}
		if v := fields[short]; v != "" {
			m.SetAttr(key, v)
		} else if f.curMsg != nil {
			if v, ok := f.curMsg.Attr(key); ok {
				m.SetAttr(key, v)
			}
		}
	}
	f.stats.Injected++
	return f.layer.forward(dir, m)
}

// attrString reads a string-valued message attribute.
func attrString(m *message.Message, key string) (string, bool) {
	v, ok := m.Attr(key)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}
