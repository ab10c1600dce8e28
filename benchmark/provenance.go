package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// provenance identifies what a result was measured on. The commit and
// dirty flag come from the environment run.sh sets ("unknown" outside a
// git checkout).
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
}

func stamp(seed int64) provenance {
	p := provenance{
		Commit:     os.Getenv("BENCH_COMMIT"),
		Dirty:      os.Getenv("BENCH_DIRTY") == "1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     kernel(),
		Seed:       seed,
	}
	if p.Commit == "" {
		p.Commit = "unknown"
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return runtime.GOOS
	}
	str := func(cs [65]int8) string {
		b := make([]byte, 0, len(cs))
		for _, c := range cs {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		return string(b)
	}
	return str(u.Sysname) + " " + str(u.Release)
}
