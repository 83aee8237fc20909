package main

import "testing"

func TestLayerOfCPU(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		// Runtime helpers name no layer: the caller pays.
		{"transport", []string{"runtime.memmove", "mpdp/internal/transport.AppendFrame", "mpdp/internal/transport.(*Sender).Send", "main.runWire.func3"}},
		{"live", []string{"runtime.chansend", "runtime.chansend1", "mpdp/internal/live.(*Engine).Ingress", "main.runLive.func2"}},
		{"harness", []string{"runtime.nanotime1", "time.Since", "main.now", "main.(*closedLoop).run"}},
		// ... unless the runtime was collecting, allocating or scheduling.
		{"runtime_gc", []string{"runtime.findObject", "runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc", "runtime.newobject", "mpdp/internal/sim.(*Simulator).At"}},
		{"runtime_malloc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgcLarge", "runtime.mallocgc", "runtime.makeslice", "mpdp/internal/core.(*Reorder).Submit"}},
		{"runtime_malloc", []string{"runtime.(*mcache).nextFree", "runtime.mallocgcSmallScanNoHeader", "runtime.newobject", "mpdp/internal/sim.(*Simulator).At"}},
		{"runtime_sched", []string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.chansend", "mpdp/internal/live.(*Engine).Ingress"}},
		{"runtime_sched", []string{"runtime.netpoll", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		// The kernel boundary, entered through net and internal/poll.
		{"syscall", []string{"internal/runtime/syscall.Syscall6", "syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "mpdp/internal/transport.(*Sender).write"}},
		{"syscall", []string{"runtime.exitsyscall", "syscall.Syscall6", "syscall.recvfrom", "internal/poll.(*FD).ReadFromInet4", "net.(*UDPConn).ReadFromUDP", "mpdp/internal/transport.(*Receiver).readLoop"}},
		// Packages of the module without a row of their own, and foreign stacks.
		{"other", []string{"mpdp/internal/fault.(*Plan).ElementFor", "mpdp/internal/experiment.Run"}},
		{"other", []string{"runtime.args", "runtime.rt0_go"}},
		{"other", nil},
		{"xrand", []string{"mpdp/internal/xrand.(*Rand).Uint64", "mpdp/internal/workload.(*Poisson).Next"}},
	} {
		if got := layerOfCPU(c.stack); got != c.want {
			t.Errorf("layerOfCPU(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestLayerOfAlloc(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"sim", []string{"runtime.mallocgc", "runtime.newobject", "mpdp/internal/sim.(*Simulator).At", "mpdp/internal/vnet.(*Lane).start"}},
		{"transport", []string{"net.(*UDPConn).ReadFromUDP", "mpdp/internal/transport.(*Receiver).readLoop", "runtime.goexit"}},
		{"harness", []string{"main.runLive.func2", "main.(*closedLoop).run", "main.runLive"}},
		{"syscall", []string{"syscall.anyToSockaddr", "internal/poll.(*FD).ReadFrom", "net.(*netFD).readFrom", "runtime.goexit"}},
		{"other", []string{"runtime.goexit"}},
		{"other", []string{"mpdp/internal/sentinel.NewDetector"}},
	} {
		if got := layerOfAlloc(c.stack); got != c.want {
			t.Errorf("layerOfAlloc(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestEveryClassificationIsARow(t *testing.T) {
	for _, rl := range runtimeLayers {
		if !isLayer[rl.layer] {
			t.Errorf("runtime layer %q has no row in layers", rl.layer)
		}
	}
	for _, l := range []string{"syscall", "harness", "other"} {
		if !isLayer[l] {
			t.Errorf("%q has no row in layers", l)
		}
	}
}
