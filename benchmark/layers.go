package main

import "strings"

// layers are the rows of the per-layer cost table: this repo's packages,
// the Go runtime split by what it was doing, the kernel boundary, the
// benchmark's own generator, and the rest.
var layers = []string{
	"workload", "sim", "core", "vnet", "nf", "packet", "stats", "xrand",
	"experiment", "live", "transport", "mesh", "obs", "invariant",
	"runtime_gc", "runtime_sched", "runtime_malloc", "syscall", "harness", "other",
}

var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// Runtime functions that name a layer, matched as prefixes of the part
// after "runtime.". A runtime frame matching none of them (memmove,
// chansend, lock2, nanotime, ...) names no layer: its cost belongs to
// whoever called it, so classification moves on to the next frame out.
var runtimeLayers = []struct {
	layer    string
	prefixes []string
}{
	{"runtime_gc", []string{
		"gcBgMarkWorker", "gcDrain", "gcAssist", "gcMark", "gcStart", "gcSweep", "gcFlushBgCredit",
		"gcWriteBarrier", "wbBufFlush", "wbMove", "wbZero", "bulkBarrier", "scanobject", "scanblock", "scanstack",
		"scanframe", "greyobject", "markroot", "markBits", "bgsweep", "bgscavenge", "sweepone",
		"(*sweepLocked)", "(*gcWork)", "(*gcControllerState)", "(*scavengerState)", "(*pageAlloc).scav",
		"(*mheap).reclaim", "(*activeSweep)", "deductSweepCredit", "gcenable", "gcParkAssist", "gcResetMarkState",
		"forcegchelper", "stopTheWorld", "startTheWorld", "finishsweep_m", "(*mspan).ensureSwept",
	}},
	{"runtime_malloc", []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "makechan",
		"(*mcache)", "(*mcentral)", "(*mheap).alloc", "(*mheap).grow", "nextFreeFast", "persistentalloc",
		"profilealloc", "mProf_Malloc", "rawstring", "rawbyteslice", "heapSetType", "(*mspan).initHeapBits",
		"(*mspan).writeHeapBits", "(*pageAlloc).alloc", "(*pageCache)", "sysAlloc", "sysUsed", "sysMap",
	}},
	{"runtime_sched", []string{
		"schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "goschedImpl", "gosched_m",
		"gopreempt_m", "preemptone", "preemptPark", "futex", "notesleep", "notewakeup", "notetsleep", "stopm", "startm",
		"wakep", "handoffp", "mPark", "execute", "runqget", "runqput", "runqsteal", "runqgrab", "runqempty",
		"globrunq", "stealWork", "resetspinning", "injectglist", "netpoll", "checkTimers", "(*timers)",
		"(*timer)", "usleep", "osyield", "pidleget", "pidleput", "pidlegetSpinning", "sysmon", "retake",
		"mstart", "newproc", "goexit0", "gdestroy", "acquirep", "releasep", "checkRunqsNoP", "checkIdleGCNoP",
	}},
}

// Import-path prefixes of the kernel boundary.
var syscallPrefixes = []string{
	"syscall.", "internal/poll.", "net.", "internal/syscall/", "internal/runtime/syscall.", "runtime/internal/syscall.",
}

const internalPrefix = "mpdp/internal/"

// repoLayer maps a function of this module to its layer ("" for any other
// function): mpdp/internal/<pkg> is <pkg> when <pkg> has a row, other when
// it has none, and the benchmark's own package main is harness.
func repoLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "harness"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	if isLayer[pkg] {
		return pkg
	}
	return "other"
}

// layerOfCPU classifies one CPU sample. stack holds function names, leaf
// first; the sample belongs to the first frame that names a layer.
func layerOfCPU(stack []string) string {
	for _, fn := range stack {
		if l := repoLayer(fn); l != "" {
			return l
		}
		for _, p := range syscallPrefixes {
			if strings.HasPrefix(fn, p) {
				return "syscall"
			}
		}
		rest, ok := strings.CutPrefix(fn, "runtime.")
		if !ok {
			continue
		}
		for _, rl := range runtimeLayers {
			for _, p := range rl.prefixes {
				if strings.HasPrefix(rest, p) {
					return rl.layer
				}
			}
		}
	}
	return "other"
}

// layerOfAlloc classifies one heap record by the package that asked for the
// memory: the innermost frame of this module. Allocations made on behalf of
// no frame of ours are the socket layer's when the stack crosses it, else
// other.
func layerOfAlloc(stack []string) string {
	for _, fn := range stack {
		if l := repoLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		for _, p := range syscallPrefixes {
			if strings.HasPrefix(fn, p) {
				return "syscall"
			}
		}
	}
	return "other"
}
