package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick is a fixed piece of work, run between ops, whose duration says
// how fast the machine is at that moment: the sum of one million 32-bit words
// streamed from a buffer too large for the private caches, about half
// arithmetic and half memory traffic. On the shared reference VM the same
// script's rounds swing by 15–40 % for minutes at a time, CPU time included,
// and of this kernel and seven others (arithmetic, pointer chases over 4 and
// 64 MB, 64-bit and per-line sums, copy, clear) this one followed the rounds
// best (README, Noise design). A window's slowdown is its mean reading over
// yardRefMicros. How much a workload slows when the yardstick slows by 1 % is
// the workload's sensitivity, a measured constant (script.go): its times are
// divided by slowdown^sensitivity, which states them at the reference box's
// quiet speed. The yardstick reads no program state and writes none, so a
// change to the program cannot move it.
const (
	yardBufWords   = 1 << 24 // 64 MB, sixteen chunks: a chunk has left the private caches when its turn comes again
	yardChunkWords = 1 << 20 // 4 MB summed per reading, about 1 ms
	// yardEvery is the op time between two readings: a round takes 200–400.
	yardEvery = 10 * time.Millisecond
	// yardRefMicros is a reading on the reference box with quiet neighbours.
	yardRefMicros = 950.0
	// yardResidentMB is what the buffer adds to the process's resident set.
	yardResidentMB = yardBufWords * 4 / (1 << 20)
)

type yardstick struct {
	mem  []byte   // the mapping
	buf  []uint32 // the same bytes as words
	pos  int
	sink uint32
}

// newYardstick maps the buffer outside the Go heap: 64 MB of live heap would
// halve the garbage collector's pace on the smaller workloads.
func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, yardBufWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("yardstick buffer: %w", err)
	}
	y := &yardstick{mem: mem, buf: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), yardBufWords)}
	for i := range y.buf {
		y.buf[i] = uint32(i) * 0x9E3779B1
	}
	return y, nil
}

func (y *yardstick) close() error { return syscall.Munmap(y.mem) }

// read sums the next chunk of the buffer and returns how long that took.
func (y *yardstick) read() time.Duration {
	chunk := y.buf[y.pos : y.pos+yardChunkWords]
	y.pos = (y.pos + yardChunkWords) % yardBufWords
	start := time.Now()
	var s uint32
	for _, v := range chunk {
		s += v
	}
	y.sink += s
	return time.Since(start)
}

// gauge accumulates the yardstick readings of one timed window.
type gauge struct {
	y        *yardstick
	since    time.Duration // op time since the last reading
	spent    time.Duration // total time inside readings
	readings int
}

// start takes the window's first reading.
func (y *yardstick) start() *gauge {
	g := &gauge{y: y}
	g.take()
	return g
}

func (g *gauge) take() {
	g.spent += g.y.read()
	g.readings++
	g.since = 0
}

// after is called with the duration of the work just done; it takes a reading
// once yardEvery of work has passed since the last one.
func (g *gauge) after(work time.Duration) {
	if g.since += work; g.since >= yardEvery {
		g.take()
	}
}

// slowdown is the window's mean reading over the reference reading.
func (g *gauge) slowdown() float64 {
	return g.spent.Seconds() * 1e6 / float64(g.readings) / yardRefMicros
}
