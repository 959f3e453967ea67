package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// fsType names the file system holding dir: fsync latency is that file
// system's, so results from different ones do not compare.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x2fc12fc1: "zfs",
	}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// environment is what a results file records about where it was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	TempFS     string `json:"temp_fs"`
}

func currentEnvironment(tmp string) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		TempFS:     fsType(tmp),
	}
}
