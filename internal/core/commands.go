package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pfi/internal/message"
	"pfi/internal/script"
)

// CurMsg is the handle filter scripts use for the message being filtered,
// mirroring the paper's cur_msg.
const CurMsg = "cur_msg"

var errNoCurrentMessage = errors.New("no current message (command valid only inside a filter run)")

// curOf resolves a message handle. Only cur_msg is live; everything else is
// a script bug worth failing loudly on.
func curOf(f *Filter, handle string) (*message.Message, error) {
	if handle != CurMsg {
		return nil, fmt.Errorf("unknown message handle %q (only %q is supported)", handle, CurMsg)
	}
	if f.curMsg == nil {
		return nil, errNoCurrentMessage
	}
	return f.curMsg, nil
}

func needArgs(args []string, n int, usage string) error {
	if len(args) != n {
		return fmt.Errorf("wrong # args: should be %q", usage)
	}
	return nil
}

// registerFilterCommands installs the PFI command set into a filter's
// interpreter. The same set is available in both directions; the filter's
// own direction decides where xInject sends by default.
func registerFilterCommands(f *Filter) {
	in := f.interp
	l := f.layer

	// --- recognition stubs ---------------------------------------------

	in.Register("msg_type", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "msg_type msgHandle"); err != nil {
			return "", err
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		return f.curInfo.Type, nil
	})

	in.Register("msg_field", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 2, "msg_field msgHandle fieldName"); err != nil {
			return "", err
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		return f.fieldValue(args[1]), nil
	})

	in.Register("msg_len", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "msg_len msgHandle"); err != nil {
			return "", err
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		return strconv.Itoa(m.Len()), nil
	})

	in.Register("msg_data", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "msg_data msgHandle"); err != nil {
			return "", err
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		return string(m.CopyBytes()), nil
	})

	in.Register("msg_hex", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "msg_hex msgHandle"); err != nil {
			return "", err
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%x", m.Bytes()), nil
	})

	in.Register("msg_log", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 && len(args) != 2 {
			return "", fmt.Errorf("wrong # args: should be %q", "msg_log msgHandle ?note?")
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		note := ""
		if len(args) == 2 {
			note = args[1]
		}
		seq := uint64(0)
		if s := f.curInfo.Field("seq"); s != "" {
			if v, err := strconv.ParseUint(s, 10, 64); err == nil {
				seq = v
			}
		}
		l.log.Addf(l.env.Now(), l.env.Node, f.dir.String()+"-filter", f.curInfo.Type, seq, note)
		_ = m
		return "", nil
	})

	// --- manipulation ----------------------------------------------------

	in.Register("xDrop", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "xDrop msgHandle"); err != nil {
			return "", err
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		f.cur.drop = true
		return "", nil
	})

	in.Register("xDelay", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 2, "xDelay msgHandle milliseconds"); err != nil {
			return "", err
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		ms, err := strconv.ParseFloat(args[1], 64)
		if err != nil || ms < 0 {
			return "", fmt.Errorf("bad delay %q", args[1])
		}
		f.cur.delay = time.Duration(ms * float64(time.Millisecond))
		return "", nil
	})

	in.Register("xDuplicate", func(_ *script.Interp, args []string) (string, error) {
		if len(args) < 1 || len(args) > 3 {
			return "", fmt.Errorf("wrong # args: should be %q", "xDuplicate msgHandle ?copies? ?gap_ms?")
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		n := 1
		if len(args) >= 2 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 1 {
				return "", fmt.Errorf("bad copy count %q", args[1])
			}
			n = v
		}
		gap := time.Duration(0)
		if len(args) == 3 {
			ms, err := strconv.ParseFloat(args[2], 64)
			if err != nil || ms < 0 {
				return "", fmt.Errorf("bad gap %q", args[2])
			}
			gap = time.Duration(ms * float64(time.Millisecond))
		}
		f.cur.dupExtra = n
		f.cur.dupGap = gap
		return "", nil
	})

	in.Register("msg_set_byte", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 3, "msg_set_byte msgHandle offset value"); err != nil {
			return "", err
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		off, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad offset %q", args[1])
		}
		val, err := strconv.ParseUint(args[2], 0, 8)
		if err != nil {
			return "", fmt.Errorf("bad byte value %q", args[2])
		}
		return "", m.SetByte(off, byte(val))
	})

	in.Register("msg_byte", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 2, "msg_byte msgHandle offset"); err != nil {
			return "", err
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		off, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad offset %q", args[1])
		}
		b, err := m.ByteAt(off)
		if err != nil {
			return "", err
		}
		return strconv.Itoa(int(b)), nil
	})

	// --- hold / release (deterministic reordering) -----------------------

	in.Register("xHold", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "xHold msgHandle"); err != nil {
			return "", err
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		f.holdNow()
		return "", nil
	})

	in.Register("xRelease", func(_ *script.Interp, args []string) (string, error) {
		n := 0
		if len(args) == 1 {
			v, err := strconv.Atoi(args[0])
			if err != nil {
				return "", fmt.Errorf("bad count %q", args[0])
			}
			n = v
		} else if len(args) > 1 {
			return "", fmt.Errorf("wrong # args: should be %q", "xRelease ?count?")
		}
		return "", f.release(n, false)
	})

	in.Register("xReleaseLIFO", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 0 {
			return "", fmt.Errorf("wrong # args: should be %q", "xReleaseLIFO")
		}
		return "", f.release(0, true)
	})

	in.Register("held_count", func(_ *script.Interp, args []string) (string, error) {
		return strconv.Itoa(len(f.held)), nil
	})

	// --- injection --------------------------------------------------------

	in.Register("xInject", func(_ *script.Interp, args []string) (string, error) {
		if len(args) < 1 || len(args) > 3 {
			return "", fmt.Errorf("wrong # args: should be %q", "xInject type ?{field value ...}? ?down|up?")
		}
		typ := args[0]
		fields := map[string]string{}
		if len(args) >= 2 {
			kvs, err := script.ListSplit(args[1])
			if err != nil {
				return "", err
			}
			if len(kvs)%2 != 0 {
				return "", fmt.Errorf("field list %q has odd length", args[1])
			}
			for i := 0; i < len(kvs); i += 2 {
				fields[kvs[i]] = kvs[i+1]
			}
		}
		dir := f.dir
		if len(args) == 3 {
			switch args[2] {
			case "down":
				dir = Send
			case "up":
				dir = Receive
			default:
				return "", fmt.Errorf("bad direction %q: must be down or up", args[2])
			}
		}
		return "", f.inject(typ, fields, dir)
	})

	// --- time and timers ---------------------------------------------------

	in.Register("now", func(_ *script.Interp, args []string) (string, error) {
		return strconv.FormatInt(time.Duration(l.env.Now()).Milliseconds(), 10), nil
	})

	in.Register("now_s", func(_ *script.Interp, args []string) (string, error) {
		return strconv.FormatFloat(l.env.Now().Seconds(), 'f', -1, 64), nil
	})

	in.Register("after", func(si *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 2, "after milliseconds script"); err != nil {
			return "", err
		}
		ms, err := strconv.ParseFloat(args[0], 64)
		if err != nil || ms < 0 {
			return "", fmt.Errorf("bad delay %q", args[0])
		}
		body := args[1]
		l.env.Sched.After(time.Duration(ms*float64(time.Millisecond)), "script-after", func() {
			if _, err := si.Eval(body); err != nil {
				l.log.Addf(l.env.Now(), l.env.Node, "script-error", "", 0, err.Error())
			}
		})
		return "", nil
	})

	// --- probability distributions (the paper's dst_* utilities) ----------

	in.Register("dst_normal", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 2, "dst_normal mean variance"); err != nil {
			return "", err
		}
		mean, err1 := strconv.ParseFloat(args[0], 64)
		variance, err2 := strconv.ParseFloat(args[1], 64)
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("bad arguments %q %q", args[0], args[1])
		}
		return formatFloat(l.rng.Normal(mean, variance)), nil
	})

	in.Register("dst_uniform", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 2, "dst_uniform lo hi"); err != nil {
			return "", err
		}
		lo, err1 := strconv.ParseFloat(args[0], 64)
		hi, err2 := strconv.ParseFloat(args[1], 64)
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("bad arguments %q %q", args[0], args[1])
		}
		return formatFloat(l.rng.Uniform(lo, hi)), nil
	})

	in.Register("dst_exponential", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "dst_exponential mean"); err != nil {
			return "", err
		}
		mean, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return "", fmt.Errorf("bad mean %q", args[0])
		}
		return formatFloat(l.rng.Exponential(mean)), nil
	})

	in.Register("coin", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "coin probability"); err != nil {
			return "", err
		}
		p, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return "", fmt.Errorf("bad probability %q", args[0])
		}
		if l.rng.Bernoulli(p) {
			return "1", nil
		}
		return "0", nil
	})

	in.Register("rand_int", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "rand_int n"); err != nil {
			return "", err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return "", fmt.Errorf("bad bound %q", args[0])
		}
		return strconv.Itoa(l.rng.Intn(n)), nil
	})

	// --- cross-interpreter state (send <-> receive) ------------------------

	in.Register("peer_set", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 2, "peer_set varName value"); err != nil {
			return "", err
		}
		f.peer().interp.SetGlobal(args[0], args[1])
		return args[1], nil
	})

	in.Register("peer_get", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 && len(args) != 2 {
			return "", fmt.Errorf("wrong # args: should be %q", "peer_get varName ?default?")
		}
		v, ok := f.peer().interp.Global(args[0])
		if !ok {
			if len(args) == 2 {
				return args[1], nil
			}
			return "", fmt.Errorf("peer has no variable %q", args[0])
		}
		return v, nil
	})

	// --- cross-node synchronization ----------------------------------------

	in.Register("sync_signal", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "sync_signal name"); err != nil {
			return "", err
		}
		l.bus.Signal(args[0])
		return "", nil
	})

	in.Register("sync_clear", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "sync_clear name"); err != nil {
			return "", err
		}
		l.bus.Clear(args[0])
		return "", nil
	})

	in.Register("sync_test", func(_ *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 1, "sync_test name"); err != nil {
			return "", err
		}
		if l.bus.IsSet(args[0]) {
			return "1", nil
		}
		return "0", nil
	})

	in.Register("sync_wait", func(si *script.Interp, args []string) (string, error) {
		if err := needArgs(args, 2, "sync_wait name script"); err != nil {
			return "", err
		}
		body := args[1]
		l.bus.OnSignal(args[0], func() {
			if _, err := si.Eval(body); err != nil {
				l.log.Addf(l.env.Now(), l.env.Node, "script-error", "", 0, err.Error())
			}
		})
		return "", nil
	})

	// --- misc ---------------------------------------------------------------

	in.Register("node", func(_ *script.Interp, args []string) (string, error) {
		return l.env.Node, nil
	})

	in.Register("dir", func(_ *script.Interp, args []string) (string, error) {
		return f.dir.String(), nil
	})

	in.Register("log", func(_ *script.Interp, args []string) (string, error) {
		l.log.Addf(l.env.Now(), l.env.Node, "script", "", 0, strings.Join(args, " "))
		return "", nil
	})
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
