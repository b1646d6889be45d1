package main

import (
	"io/fs"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/iofault"
)

// timingFS wraps the production filesystem passthrough and counts and times
// the durability operations the service's state directory and the
// checkpoint journal perform: writes, syncs (file fsync and directory
// fsync) and renames. It only passes calls through — the journal's Sync
// mode, fsync-before-rename and every other durability step run exactly as
// they do over iofault.OSFS. Reads are not counted.
type timingFS struct {
	inner iofault.FS

	writes, syncs, renames, bytes atomic.Int64
	syncNs                        atomic.Int64
	// A checkpoint journal append is one buffered write of the framed
	// record followed by an fsync (the daemon journals in Sync mode); the
	// header counts as one append.
	ckptAppends, ckptNs atomic.Int64
}

// fsCounts is the timingFS tally the daemon reports at exit.
type fsCounts struct {
	Writes      int64 `json:"writes"`
	Syncs       int64 `json:"syncs"`
	Renames     int64 `json:"renames"`
	Bytes       int64 `json:"bytes"`
	SyncNs      int64 `json:"sync_ns"`
	CkptAppends int64 `json:"ckpt_appends"`
	CkptNs      int64 `json:"ckpt_ns"`
}

func (t *timingFS) counts() fsCounts {
	return fsCounts{
		Writes: t.writes.Load(), Syncs: t.syncs.Load(), Renames: t.renames.Load(),
		Bytes: t.bytes.Load(), SyncNs: t.syncNs.Load(),
		CkptAppends: t.ckptAppends.Load(), CkptNs: t.ckptNs.Load(),
	}
}

func (t *timingFS) OpenFile(path string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := t.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, journal: strings.HasSuffix(path, ".ckpt")}, nil
}

func (t *timingFS) Open(path string) (iofault.File, error) { return t.inner.Open(path) }

func (t *timingFS) ReadFile(path string) ([]byte, error) { return t.inner.ReadFile(path) }

func (t *timingFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	t.writes.Add(1)
	t.bytes.Add(int64(len(data)))
	return t.inner.WriteFile(path, data, perm)
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	t.renames.Add(1)
	return t.inner.Rename(oldpath, newpath)
}

func (t *timingFS) Remove(path string) error { return t.inner.Remove(path) }

func (t *timingFS) ReadDir(path string) ([]fs.DirEntry, error) { return t.inner.ReadDir(path) }

func (t *timingFS) Stat(path string) (fs.FileInfo, error) { return t.inner.Stat(path) }

func (t *timingFS) MkdirAll(path string, perm os.FileMode) error { return t.inner.MkdirAll(path, perm) }

func (t *timingFS) SyncDir(path string) error {
	start := time.Now()
	err := t.inner.SyncDir(path)
	t.syncs.Add(1)
	t.syncNs.Add(int64(time.Since(start)))
	return err
}

// timedFile counts and times writes and fsyncs on one open file.
type timedFile struct {
	iofault.File
	fs      *timingFS
	journal bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	d := int64(time.Since(start))
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	if f.journal {
		f.fs.ckptAppends.Add(1)
		f.fs.ckptNs.Add(d)
	}
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(start))
	f.fs.syncs.Add(1)
	f.fs.syncNs.Add(d)
	if f.journal {
		f.fs.ckptNs.Add(d)
	}
	return err
}
