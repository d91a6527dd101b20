//! # dd-wfdag — dynamic scientific workflow DAGs
//!
//! The workload substrate of the DayDream reproduction: a model of
//! *dynamic* workflow DAGs (paper Sec. II) and generators calibrated to the
//! three workflows the paper evaluates:
//!
//! * **ExaFEL** — X-ray diffraction molecular-structure workflow (ECP);
//!   ~1 521 catalog components, average phase concurrency 17, ~90 phases,
//!   10 GB read / 27 GB written per run.
//! * **Cosmoscout-VR** — DLR virtual-universe simulation; ~15 232 catalog
//!   components, ~1 100 phases per run, phase concurrency ≈ 90,
//!   40 GB read / 53 GB written.
//! * **CCL** — Core Cosmology Library; ~982 components, ~110 phases,
//!   22 GB read / 17 GB written.
//!
//! A **component** is the smallest unit of execution; components that can
//! run in parallel form a **phase**; a concrete execution of the DAG for
//! one (operation, input) pair is a **run**. The execution path — which
//! components appear, their concurrency, and the number of phases — varies
//! run to run (the *dynamic* in dynamic DAG), but the *histogram* of phase
//! concurrency is stable and Weibull-shaped (paper Fig. 9), which is the
//! property DayDream exploits.

pub mod builder;
pub mod component;
pub mod dag;
pub mod generator;
pub mod run;
pub mod runtime;
pub mod spec;
pub mod usage;
pub mod validate;

pub use builder::{ComponentDef, WorkflowBuilder};
pub use component::{ComponentInstance, ComponentType, ComponentTypeId};
pub use dag::{DagJoint, DynamicDag, PhaseTemplate};
pub use generator::RunGenerator;
pub use run::{Phase, RunLabel, WorkflowRun};
pub use runtime::LanguageRuntime;
pub use spec::{Workflow, WorkflowSpec};
pub use usage::{ResourceKind, UsageSeries};
pub use validate::{validate_run, validate_spec, ValidationError};
